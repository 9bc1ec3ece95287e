//! Violation: an ad-hoc environment read outside the flag module.
//! `ROBUSTHD_SECRET` never passes through the flag module or the
//! `FlagRegistry`, so it can drift from docs and CLI output unnoticed.
#![forbid(unsafe_code)]

pub fn secret_enabled() -> bool {
    std::env::var("ROBUSTHD_SECRET").is_ok()
}
