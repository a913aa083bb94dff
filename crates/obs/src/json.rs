//! The flight recorder's JSON codec: a re-export of
//! [`ppm_telemetry::json`], the workspace's one value type, parser and
//! string escaper. Ledgers, bench files and reports are built as
//! [`Json`] documents and written with [`Json::dump`]; the path
//! `ppm_obs::json::Json` stays valid for callers outside the workspace.

pub use ppm_telemetry::json::{Json, JsonError};
