//! Hash-order known-bad fixture: hash-map iteration feeding an emitter.
//! Expected T1 scope findings: the `for .. in &self.rows` loop and the
//! `.keys()` call.
use std::collections::HashMap;

pub struct Export {
    rows: HashMap<String, u64>,
}

impl Export {
    pub fn emit(&self) -> String {
        let mut out = String::new();
        for (k, v) in &self.rows {
            out.push_str(&format!("{k}={v}\n"));
        }
        out
    }

    pub fn header(&self) -> Vec<String> {
        self.rows.keys().cloned().collect()
    }
}
