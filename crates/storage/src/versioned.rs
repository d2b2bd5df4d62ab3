//! Versioned databases — the "time travel" substrate.
//!
//! The paper assumes the backend DBMS supports time travel so that the state
//! `D` of the database *before* the first modified statement can be accessed
//! (Section 1, Section 4). A [`VersionedDatabase`] holds the two states the
//! what-if engine reads: the initial state `D` and the current state
//! `H(D)` after the whole history.
//!
//! Both are full copies. This is deliberate: the naive algorithm's cost of
//! copying data is part of what the paper measures, and cheap structural
//! sharing would distort that comparison. No intermediate state is kept —
//! reenactment recomputes what it needs from `D` as queries.

use crate::database::Database;

/// A database's initial state `D` plus its current state `H(D)`.
#[derive(Debug, Clone, Default)]
pub struct VersionedDatabase {
    initial: Database,
    current: Database,
}

impl VersionedDatabase {
    /// Pairs the state before a history with the state after it.
    pub fn new(initial: Database, current: Database) -> Self {
        VersionedDatabase { initial, current }
    }

    /// The initial state — `D` in the paper's notation.
    pub fn initial(&self) -> &Database {
        &self.initial
    }

    /// The current state — `H(D)` in the paper's notation.
    pub fn current(&self) -> &Database {
        &self.current
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::relation::Relation;
    use crate::schema::{Attribute, Schema};
    use mahif_expr::Value;

    fn db_with_price(p: i64) -> Database {
        let schema = Schema::shared("R", vec![Attribute::int("Price")]);
        let mut r = Relation::empty(schema);
        r.insert_values([Value::int(p)]).unwrap();
        let mut d = Database::new();
        d.add_relation(r).unwrap();
        d
    }

    #[test]
    fn holds_the_initial_and_current_states() {
        let v = VersionedDatabase::new(db_with_price(10), db_with_price(20));
        let price = |db: &Database| db.relation("R").unwrap().tuples[0].value(0).cloned();
        assert_eq!(price(v.initial()), Some(Value::int(10)));
        assert_eq!(price(v.current()), Some(Value::int(20)));
    }
}
