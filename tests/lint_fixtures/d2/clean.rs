//! Hash-order known-clean fixture: ordered maps iterate freely, hash
//! maps are only used for keyed lookups, and tests are exempt.
use std::collections::{BTreeMap, HashMap};

pub struct Export {
    rows: BTreeMap<String, u64>,
    cache: HashMap<String, u64>,
}

impl Export {
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.rows {
            out.push_str(&format!("{k}={v}\n"));
        }
        out
    }

    pub fn lookup(&mut self, key: &str) -> u64 {
        *self.cache.entry(key.to_string()).or_insert(0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tests_may_iterate_hashes() {
        let m: HashMap<u32, u32> = HashMap::new();
        assert_eq!(m.iter().count(), 0);
    }
}
