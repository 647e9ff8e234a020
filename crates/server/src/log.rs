//! Leveled, structured JSONL event log for the serving path.
//!
//! One line per event: `{"ts_ms":..., "level":"info", "kind":"access",
//! ...}` — machine-greppable (CI uploads it as an artifact) and cheap
//! enough to leave on in production. Four kinds are emitted today:
//!
//! - `access` — one line per HTTP exchange (route, status, latency);
//! - `dispatch` — the scheduler moved a job from queued to running;
//! - `terminal` — a job reached a terminal state (with SLO verdicts);
//! - `recovery` — what journal replay did at startup.
//!
//! The sink is a file configured by
//! [`ServerConfig::event_log`](crate::ServerConfig); `None` disables
//! logging entirely (every call is a cheap level check). The minimum
//! level comes from the `AGCM_LOG_LEVEL` environment variable
//! (`debug`, `info`, `warn`, `error`; default `info`), so an operator
//! can silence access lines without a rebuild.

//! The file is a `durable::LineLog`, the journal's append path: one
//! unbuffered write per line, so a tailing reader (CI, an operator) sees
//! every event as it happens. With a [`RotationPolicy`] the log rotates
//! by size (`LineLog::rotate`): when the active file reaches the byte
//! cap it is renamed to `<path>.1` (older generations shifting to `.2`,
//! `.3`, ...) and a fresh file is opened, keeping at most `keep` rotated
//! generations on disk — so a chatty server cannot fill the volume with
//! access lines.

use agcm_ckptstore::durable::LineLog;
use agcm_telemetry::json::Value;
use std::path::Path;
use std::sync::Mutex;
use std::time::{SystemTime, UNIX_EPOCH};

/// Size-based rotation: rotate the active file once it holds
/// `max_bytes`, keeping `keep` rotated generations (`<path>.1` newest).
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RotationPolicy {
    /// Rotate once the active file reaches this many bytes (the line
    /// that crosses the cap is written first, then the file rotates, so
    /// events are never split across generations).
    pub max_bytes: u64,
    /// Rotated generations kept; `0` means rotated files are deleted
    /// immediately (only the active file survives).
    pub keep: usize,
}

impl Default for RotationPolicy {
    fn default() -> RotationPolicy {
        RotationPolicy {
            max_bytes: 16 * 1024 * 1024,
            keep: 3,
        }
    }
}

/// Event severity, ordered.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum LogLevel {
    /// Per-request noise (access lines).
    Debug,
    /// Normal lifecycle events (dispatch, terminal, recovery).
    Info,
    /// Something degraded (journal corruption, unrecoverable jobs).
    Warn,
    /// The serving path is losing data or rejecting work it should not.
    Error,
}

impl LogLevel {
    /// Wire label.
    pub fn label(self) -> &'static str {
        match self {
            LogLevel::Debug => "debug",
            LogLevel::Info => "info",
            LogLevel::Warn => "warn",
            LogLevel::Error => "error",
        }
    }

    /// Parse a label; unknown strings fall back to `Info` (a typo in an
    /// env var must not silence errors).
    pub fn parse(text: &str) -> LogLevel {
        match text.trim().to_ascii_lowercase().as_str() {
            "debug" => LogLevel::Debug,
            "warn" | "warning" => LogLevel::Warn,
            "error" => LogLevel::Error,
            _ => LogLevel::Info,
        }
    }

    /// The level named by `AGCM_LOG_LEVEL`, default `Info`.
    pub fn from_env() -> LogLevel {
        match std::env::var("AGCM_LOG_LEVEL") {
            Ok(v) => LogLevel::parse(&v),
            Err(_) => LogLevel::Info,
        }
    }
}

/// The structured log sink. Appends are serialized; a failed write or
/// rotation closes the log, which disables the sink rather than taking
/// down the serving path.
pub struct EventLog {
    min_level: LogLevel,
    rotation: Option<RotationPolicy>,
    /// `None` when logging is disabled.
    log: Mutex<Option<LineLog>>,
}

impl EventLog {
    /// A disabled log: every event is dropped after the level check.
    pub fn disabled() -> EventLog {
        EventLog {
            min_level: LogLevel::Error,
            rotation: None,
            log: Mutex::new(None),
        }
    }

    /// Open (append) the log at `path` with the given minimum level and
    /// no size cap.
    pub fn open(path: &Path, min_level: LogLevel) -> std::io::Result<EventLog> {
        Self::open_with(path, min_level, None)
    }

    /// Open (append) the log at `path`, rotating by size under `policy`.
    pub fn open_rotating(
        path: &Path,
        min_level: LogLevel,
        policy: RotationPolicy,
    ) -> std::io::Result<EventLog> {
        Self::open_with(path, min_level, Some(policy))
    }

    fn open_with(
        path: &Path,
        min_level: LogLevel,
        rotation: Option<RotationPolicy>,
    ) -> std::io::Result<EventLog> {
        let log = Mutex::new(Some(LineLog::open(path)?));
        Ok(EventLog {
            min_level,
            rotation,
            log,
        })
    }

    /// Whether an event at `level` would be written.
    pub fn enabled(&self, level: LogLevel) -> bool {
        let log = self.log.lock().unwrap();
        level >= self.min_level && log.as_ref().is_some_and(|log| !log.is_closed())
    }

    /// Append one event. `fields` land after the standard `ts_ms`,
    /// `level`, `kind` keys.
    pub fn event(&self, level: LogLevel, kind: &str, fields: Vec<(&str, Value)>) {
        if level < self.min_level {
            return;
        }
        let mut log = self.log.lock().unwrap();
        let Some(log) = log.as_mut().filter(|log| !log.is_closed()) else {
            return;
        };
        let ts_ms = SystemTime::now()
            .duration_since(UNIX_EPOCH)
            .map(|d| d.as_millis() as f64)
            .unwrap_or(0.0);
        let mut obj = vec![
            ("ts_ms", Value::Num(ts_ms)),
            ("level", Value::Str(level.label().into())),
            ("kind", Value::Str(kind.into())),
        ];
        obj.extend(fields);
        let mut line = Value::obj(obj).to_string();
        line.push('\n');
        if log.append(&line).is_err() {
            return;
        }
        if let Some(policy) = self.rotation.filter(|p| log.written() >= p.max_bytes) {
            let _ = log.rotate(policy.keep);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn scratch(tag: &str) -> std::path::PathBuf {
        std::env::temp_dir().join(format!("agcm-eventlog-{tag}-{}", std::process::id()))
    }

    #[test]
    fn level_filter_drops_below_minimum() {
        let path = scratch("filter");
        let _ = std::fs::remove_file(&path);
        let log = EventLog::open(&path, LogLevel::Info).unwrap();
        log.event(
            LogLevel::Debug,
            "access",
            vec![("route", Value::Str("x".into()))],
        );
        log.event(LogLevel::Info, "dispatch", vec![("job", Value::Num(1.0))]);
        log.event(LogLevel::Error, "terminal", vec![("job", Value::Num(1.0))]);
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2, "debug line filtered: {text}");
        for line in &lines {
            let v = Value::parse(line).expect("every line is valid JSON");
            assert!(v.get("ts_ms").and_then(Value::as_f64).is_some());
            assert!(v.get("level").and_then(Value::as_str).is_some());
        }
        assert!(lines[0].contains("\"dispatch\""));
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn level_parse_is_forgiving() {
        assert_eq!(LogLevel::parse("DEBUG"), LogLevel::Debug);
        assert_eq!(LogLevel::parse(" warning "), LogLevel::Warn);
        assert_eq!(LogLevel::parse("nonsense"), LogLevel::Info);
        assert!(LogLevel::Debug < LogLevel::Error);
    }

    #[test]
    fn disabled_log_drops_everything() {
        let log = EventLog::disabled();
        assert!(!log.enabled(LogLevel::Error));
        log.event(LogLevel::Error, "terminal", vec![]);
    }

    fn cleanup(path: &Path, keep: usize) {
        let _ = std::fs::remove_file(path);
        for n in 1..=keep + 1 {
            let _ = std::fs::remove_file(format!("{}.{n}", path.display()));
        }
    }

    #[test]
    fn rotation_caps_the_active_file_and_keeps_n_generations() {
        let path = scratch("rotate");
        cleanup(&path, 2);
        let policy = RotationPolicy {
            max_bytes: 256,
            keep: 2,
        };
        let log = EventLog::open_rotating(&path, LogLevel::Info, policy).unwrap();
        for i in 0..40 {
            log.event(
                LogLevel::Info,
                "dispatch",
                vec![("job", Value::Num(i as f64))],
            );
        }
        // The active file never holds more than one cap's worth plus the
        // line that crossed it.
        let active = std::fs::metadata(&path).unwrap().len();
        assert!(
            active < 2 * policy.max_bytes,
            "active file is {active} bytes"
        );
        // Exactly `keep` generations, each a valid JSONL file.
        for n in 1..=2 {
            let gen_path = format!("{}.{n}", path.display());
            let text = std::fs::read_to_string(&gen_path)
                .unwrap_or_else(|_| panic!("generation {n} must exist"));
            for line in text.lines() {
                Value::parse(line).expect("rotated lines stay valid JSON");
            }
        }
        assert!(
            !Path::new(&format!("{}.3", path.display())).exists(),
            "generation beyond keep must be deleted"
        );
        // Newest rotated generation holds newer events than the oldest.
        let newest = std::fs::read_to_string(format!("{}.1", path.display())).unwrap();
        let oldest = std::fs::read_to_string(format!("{}.2", path.display())).unwrap();
        let first_job = |text: &str| {
            Value::parse(text.lines().next().unwrap())
                .unwrap()
                .get("job")
                .unwrap()
                .as_f64()
                .unwrap()
        };
        assert!(first_job(&newest) > first_job(&oldest));
        cleanup(&path, 2);
    }

    #[test]
    fn rotation_keep_zero_discards_rotated_files() {
        let path = scratch("rotate0");
        cleanup(&path, 1);
        let log = EventLog::open_rotating(
            &path,
            LogLevel::Info,
            RotationPolicy {
                max_bytes: 128,
                keep: 0,
            },
        )
        .unwrap();
        for i in 0..20 {
            log.event(
                LogLevel::Info,
                "dispatch",
                vec![("job", Value::Num(i as f64))],
            );
        }
        assert!(
            !Path::new(&format!("{}.1", path.display())).exists(),
            "keep=0 must not leave rotated generations"
        );
        assert!(std::fs::metadata(&path).unwrap().len() < 256);
        cleanup(&path, 1);
    }

    #[test]
    fn reopen_counts_existing_bytes_toward_the_cap() {
        let path = scratch("rotate-reopen");
        cleanup(&path, 1);
        std::fs::write(&path, "x".repeat(300)).unwrap();
        let log = EventLog::open_rotating(
            &path,
            LogLevel::Info,
            RotationPolicy {
                max_bytes: 256,
                keep: 1,
            },
        )
        .unwrap();
        // Already over the cap: the first event lands, then rotates.
        log.event(LogLevel::Info, "dispatch", vec![("job", Value::Num(1.0))]);
        assert!(Path::new(&format!("{}.1", path.display())).exists());
        assert_eq!(std::fs::metadata(&path).unwrap().len(), 0);
        cleanup(&path, 1);
    }
}
