//! Flag module for the stale-flag-mention fixture: one flag, correctly
//! registered. The stale mention is in the CLI help text.

pub const WIDGETS_ENV_VAR: &str = "ROBUSTHD_WIDGETS";

pub struct FlagRegistry;

impl FlagRegistry {
    pub fn flags() -> Vec<&'static str> {
        vec![WIDGETS_ENV_VAR]
    }
}
