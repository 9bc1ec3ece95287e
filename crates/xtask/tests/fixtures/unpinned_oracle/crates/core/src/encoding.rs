//! Violation: a public reference oracle that no suite compares against
//! its fast path (the suite below names the oracle but not `encode`).

pub struct Encoder;

impl Encoder {
    pub fn encode(&self) -> u64 {
        1
    }

    pub fn encode_reference(&self) -> u64 {
        1
    }
}
