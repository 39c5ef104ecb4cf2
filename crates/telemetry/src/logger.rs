//! The daemons' leveled stderr logger: timestamped from the telemetry
//! clock, filtered by the `GOLDFISH_LOG` environment variable
//! (`error`, `warn`, `info` (default), `debug`, `trace`, `off`).
//!
//! Result lines the CI pipeline greps (round summaries, quarantine
//! notices, audit verdicts) stay on stdout via plain `println!`; this
//! logger replaces the daemons' diagnostic `eprintln!`s. The level is
//! checked before any formatting happens, so a filtered-out call costs
//! one atomic load and no allocation.

use std::sync::atomic::{AtomicU8, Ordering};
use std::sync::OnceLock;

use crate::clock::Clock;

/// Log severity, ascending verbosity.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Level {
    /// Unrecoverable or data-affecting problems.
    Error = 1,
    /// Degraded but continuing.
    Warn = 2,
    /// Lifecycle milestones (default).
    Info = 3,
    /// Per-round diagnostics.
    Debug = 4,
    /// Everything.
    Trace = 5,
}

impl Level {
    fn tag(self) -> &'static str {
        match self {
            Level::Error => "ERROR",
            Level::Warn => "WARN",
            Level::Info => "INFO",
            Level::Debug => "DEBUG",
            Level::Trace => "TRACE",
        }
    }

    /// Parses a `GOLDFISH_LOG` value; `None` disables logging entirely.
    pub(crate) fn parse(s: &str) -> Option<Level> {
        match s.trim().to_ascii_lowercase().as_str() {
            "error" => Some(Level::Error),
            "warn" | "warning" => Some(Level::Warn),
            "info" => Some(Level::Info),
            "debug" => Some(Level::Debug),
            "trace" => Some(Level::Trace),
            "off" | "none" | "0" => None,
            _ => Some(Level::Info),
        }
    }
}

/// 0 = off; otherwise the numeric value of the max enabled [`Level`].
static MAX_LEVEL: AtomicU8 = AtomicU8::new(Level::Info as u8);
static CLOCK: OnceLock<Clock> = OnceLock::new();

/// Installs the logger's clock and reads `GOLDFISH_LOG`. Idempotent:
/// the first caller's clock wins (the daemons call this once at
/// startup). Returns the effective max level, `None` when off.
pub fn init(clock: Clock) -> Option<Level> {
    let _ = CLOCK.set(clock);
    let level = match std::env::var("GOLDFISH_LOG") {
        Ok(v) => Level::parse(&v),
        Err(_) => Some(Level::Info),
    };
    MAX_LEVEL.store(level.map(|l| l as u8).unwrap_or(0), Ordering::Relaxed);
    level
}

/// Whether `level` would currently be emitted — the macros' guard, so
/// filtered calls never format.
pub fn enabled(level: Level) -> bool {
    level as u8 <= MAX_LEVEL.load(Ordering::Relaxed)
}

/// Emits one line to stderr: `[   12.345s] LEVEL message`. Called by
/// the macros after the [`enabled`] guard passed.
pub fn log(level: Level, args: std::fmt::Arguments<'_>) {
    if !enabled(level) {
        return;
    }
    let nanos = CLOCK.get_or_init(Clock::system).now_nanos();
    eprintln!("[{:>9.3}s] {:5} {args}", nanos as f64 / 1e9, level.tag());
}

/// Logs at [`Level::Error`].
#[macro_export]
macro_rules! error {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Error) {
            $crate::logger::log($crate::logger::Level::Error, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Warn`].
#[macro_export]
macro_rules! warn {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Warn) {
            $crate::logger::log($crate::logger::Level::Warn, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Info`].
#[macro_export]
macro_rules! info {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Info) {
            $crate::logger::log($crate::logger::Level::Info, format_args!($($arg)*));
        }
    };
}

/// Logs at [`Level::Debug`].
#[macro_export]
macro_rules! debug {
    ($($arg:tt)*) => {
        if $crate::logger::enabled($crate::logger::Level::Debug) {
            $crate::logger::log($crate::logger::Level::Debug, format_args!($($arg)*));
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn level_parse_and_filtering() {
        assert_eq!(Level::parse("debug"), Some(Level::Debug));
        assert_eq!(Level::parse("WARN"), Some(Level::Warn));
        assert_eq!(Level::parse("off"), None);
        assert_eq!(Level::parse("garbage"), Some(Level::Info));

        MAX_LEVEL.store(Level::Warn as u8, Ordering::Relaxed);
        assert!(enabled(Level::Error));
        assert!(enabled(Level::Warn));
        assert!(!enabled(Level::Info));
        MAX_LEVEL.store(0, Ordering::Relaxed);
        assert!(!enabled(Level::Error));
        // Restore the default for other tests in this binary.
        MAX_LEVEL.store(Level::Info as u8, Ordering::Relaxed);
    }
}
