//! The correctness gate: every timed answer must equal, byte for byte, the
//! `Method::Naive` answer to the same request, computed in this process
//! from the same request bodies the server decoded.

use std::collections::{BTreeSet, HashMap};

use mahif::{Method, Session};
use mahif_serve::{decode_batch, decode_register, encode_response, Json};

use crate::workloads::METHOD;

pub struct Oracle {
    session: Session,
    /// Expected response prefix per distinct request body.
    answers: HashMap<String, String>,
}

impl Oracle {
    pub fn new() -> Oracle {
        Oracle {
            session: Session::new(),
            answers: HashMap::new(),
        }
    }

    /// The in-process session the oracle answers from.
    pub fn session(&self) -> &Session {
        &self.session
    }

    /// Registers `name` from the same body the server is sent.
    pub fn register(&self, name: &str, body: &str) -> Result<(), String> {
        let decoded = decode_register(body).map_err(|e| format!("oracle decode: {e}"))?;
        self.session
            .register(name, decoded.initial, decoded.history)
            .map_err(|e| format!("oracle register: {e}"))?;
        Ok(())
    }

    /// The prefix every correct server reply to `body` posted against
    /// `history` starts with: history, method and the scenario deltas,
    /// exactly as the wire encodes them, up to the timing-bearing `stats`.
    pub fn expected(&mut self, history: &str, body: &str) -> Result<&str, String> {
        self.precompute(history, &[body])?;
        Ok(&self.answers[body])
    }

    /// Computes the expected answers of many bodies. When their scenario
    /// names are distinct they run as one naive batch, which spreads the
    /// scenarios over the session's worker threads.
    pub fn precompute(&mut self, history: &str, bodies: &[&str]) -> Result<(), String> {
        let mut todo: Vec<&str> = Vec::new();
        for &body in bodies {
            if !self.answers.contains_key(body) && !todo.contains(&body) {
                todo.push(body);
            }
        }
        if todo.is_empty() {
            return Ok(());
        }
        let batches = todo
            .iter()
            .map(|b| decode_batch(b).map_err(|e| format!("oracle decode: {e}")))
            .collect::<Result<Vec<_>, _>>()?;
        let names: BTreeSet<&str> = batches
            .iter()
            .flat_map(|b| b.scenarios.iter().map(|s| s.name()))
            .collect();
        let total: usize = batches.iter().map(|b| b.scenarios.len()).sum();
        let groups: Vec<Vec<usize>> = if names.len() == total {
            vec![(0..todo.len()).collect()]
        } else {
            (0..todo.len()).map(|i| vec![i]).collect()
        };
        let mut batches: Vec<Option<_>> = batches.into_iter().map(Some).collect();
        for group in groups {
            let members: Vec<_> = group
                .iter()
                .map(|&i| batches[i].take().expect("each batch runs once"))
                .collect();
            let counts: Vec<usize> = members.iter().map(|b| b.scenarios.len()).collect();
            if counts.iter().sum::<usize>() == 0 {
                return Err("a request without scenarios".to_string());
            }
            let response = self
                .session
                .on(history)
                .method(Method::Naive)
                .run_batch(members.into_iter().flat_map(|b| b.scenarios))
                .map_err(|e| format!("oracle: {e}"))?;
            let encoded = encode_response(&response);
            let scenarios = encoded
                .get("scenarios")
                .and_then(Json::as_array)
                .ok_or("encoded response without scenarios")?;
            let mut offset = 0;
            for (&i, count) in group.iter().zip(counts) {
                let own = Json::Arr(scenarios[offset..offset + count].to_vec());
                offset += count;
                let prefix = format!(
                    "{{\"history\":{},\"method\":{},\"scenarios\":{own},\"stats\":",
                    Json::str(history),
                    Json::str(METHOD),
                );
                self.answers.insert(todo[i].to_string(), prefix);
            }
        }
        Ok(())
    }
}

/// True when a server reply carries exactly the expected answer.
pub fn matches(reply: &str, expected_prefix: &str) -> bool {
    reply.starts_with(expected_prefix)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::workloads::HistoryInput;

    #[test]
    fn reenactment_answers_match_the_naive_oracle_and_a_wrong_one_does_not() {
        let input = HistoryInput::generate(400, 12, 9);
        let mut oracle = Oracle::new();
        oracle.register("h", &input.body).unwrap();
        let body = input.batch_body(&[5, 6]);
        let expected = oracle.expected("h", &body).unwrap().to_string();
        let batch = decode_batch(&body).unwrap();
        let reply = encode_response(
            &oracle
                .session()
                .on("h")
                .method(Method::ReenactPsDs)
                .run_batch(batch.scenarios)
                .unwrap(),
        )
        .to_string();
        assert!(matches(&reply, &expected));
        let other = oracle.expected("h", &input.batch_body(&[5, 7])).unwrap();
        assert!(!matches(&reply, other), "another scenario must not verify");
    }
}
