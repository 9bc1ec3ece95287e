//! Violation: help text naming a flag that is registered nowhere. The
//! ROBUSTHD_WIDGETS mention in this comment is fine; the one below is not.

pub const HELP: &str = "\
    --window-us <N>   coalescing window (default ROBUSTHD_GADGETS or 1000)";
