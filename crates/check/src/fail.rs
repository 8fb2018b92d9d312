//! Failpoints: deterministic fault injection for durability tests.
//!
//! A failpoint names an I/O site (e.g. `wal.append`) and an action to
//! take once a cumulative byte threshold is reached. Production code
//! routes its physical writes through [`on_write`]; with no failpoint
//! armed the call is a couple of atomic loads, so leaving the hook in
//! release builds costs nothing measurable.
//!
//! Failpoints are armed either programmatically ([`install`]) or from
//! the `HPM_FAILPOINT` environment variable, which lets a test harness
//! crash a *child process* mid-write and then recover its on-disk
//! state from the parent:
//!
//! ```text
//! HPM_FAILPOINT=<point>=<action>@<bytes>
//!
//! wal.append=torn@4096    tear the write crossing cumulative byte
//!                         4096 (partial bytes hit the file) and exit
//!                         with EXIT_CODE
//! wal.append=short@4096   silently drop the tail of that write once,
//!                         then keep going (a lying disk)
//! wal.append=error@4096   write the prefix up to byte 4096, then fail
//!                         that write with an I/O error (a full disk)
//! wal.append=exit@4096    exit with EXIT_CODE instead of performing
//!                         the write that would pass cumulative byte
//!                         4096 (a clean write-boundary crash)
//! ```
//!
//! The byte counter accumulates over every write through the matching
//! point, so a threshold addresses an exact prefix of the byte stream
//! regardless of how writes are batched. Each armed failpoint fires at
//! most once.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, OnceLock, PoisonError};

/// Exit code a torn/exit failpoint terminates the process with —
/// distinguishable from both success and a panic (101).
pub const EXIT_CODE: i32 = 86;

/// What to do when the byte threshold is crossed.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum FailAction {
    /// Write a partial prefix of the crossing write, then exit.
    Torn,
    /// Write a partial prefix, report success, keep running.
    Short,
    /// Write a partial prefix, then fail the write with an I/O error.
    Error,
    /// Exit cleanly before the crossing write touches the file.
    Exit,
}

#[derive(Debug, Clone)]
struct Failpoint {
    point: String,
    action: FailAction,
    /// Cumulative byte threshold the action fires at.
    at: u64,
    /// Bytes already written through the matching point.
    written: u64,
    fired: bool,
}

/// What the caller should do with one physical write of `len` bytes.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum WriteOutcome {
    /// Write the whole buffer.
    Full,
    /// Write only the first `n` bytes, then `process::exit(EXIT_CODE)`.
    TornExit(usize),
    /// Write only the first `n` bytes and report success.
    Short(usize),
    /// Write only the first `n` bytes, then fail the write with an
    /// I/O error.
    Error(usize),
    /// Write nothing and `process::exit(EXIT_CODE)`.
    ExitNow,
}

/// `true` while any failpoint is armed — lets [`on_write`] stay a
/// couple of atomic loads on the hot path.
static ARMED: AtomicBool = AtomicBool::new(false);

/// `true` once `HPM_FAILPOINT` has been consulted, so the unarmed
/// fast path can skip [`active`]'s lock forever after.
static ENV_CHECKED: AtomicBool = AtomicBool::new(false);

fn active() -> &'static Mutex<Option<Failpoint>> {
    static ACTIVE: OnceLock<Mutex<Option<Failpoint>>> = OnceLock::new();
    ACTIVE.get_or_init(|| {
        let from_env = std::env::var("HPM_FAILPOINT")
            .ok()
            .and_then(|spec| parse(&spec).ok());
        if from_env.is_some() {
            ARMED.store(true, Ordering::Release);
        }
        Mutex::new(from_env)
    })
}

fn parse(spec: &str) -> Result<Failpoint, String> {
    let (point, rest) = spec
        .split_once('=')
        .ok_or_else(|| format!("failpoint spec `{spec}` missing `=`"))?;
    let (action, at) = rest
        .split_once('@')
        .ok_or_else(|| format!("failpoint spec `{spec}` missing `@<bytes>`"))?;
    let action = match action {
        "torn" => FailAction::Torn,
        "short" => FailAction::Short,
        "error" => FailAction::Error,
        "exit" => FailAction::Exit,
        other => return Err(format!("unknown failpoint action `{other}`")),
    };
    let at: u64 = at
        .parse()
        .map_err(|_| format!("failpoint threshold `{at}` is not a byte count"))?;
    Ok(Failpoint {
        point: point.to_string(),
        action,
        at,
        written: 0,
        fired: false,
    })
}

/// Arms a failpoint from a `point=action@bytes` spec, replacing any
/// previous one (from the environment included) and resetting the byte
/// counter. Process-global: tests sharing a process must not overlap
/// arming windows with unrelated WAL writers.
pub fn install(spec: &str) -> Result<(), String> {
    let fp = parse(spec)?;
    let mut active = active().lock().unwrap_or_else(PoisonError::into_inner);
    *active = Some(fp);
    ARMED.store(true, Ordering::Release);
    Ok(())
}

/// Disarms any armed failpoint.
pub fn clear() {
    let mut active = active().lock().unwrap_or_else(PoisonError::into_inner);
    *active = None;
    ARMED.store(false, Ordering::Release);
}

/// Consults the armed failpoint (if any) about a physical write of
/// `len` bytes through `point`. The caller must honour the outcome:
/// write the indicated prefix, exit with [`EXIT_CODE`] on
/// [`WriteOutcome::TornExit`] / [`WriteOutcome::ExitNow`] *after*
/// flushing the partial bytes to the file, and fail the write with an
/// I/O error on [`WriteOutcome::Error`].
pub fn on_write(point: &str, len: usize) -> WriteOutcome {
    // The first call must reach `active()` even while unarmed: that is
    // what parses `HPM_FAILPOINT` and arms an env-specified failpoint.
    if !ARMED.load(Ordering::Acquire) && ENV_CHECKED.load(Ordering::Acquire) {
        return WriteOutcome::Full;
    }
    let mut guard = active().lock().unwrap_or_else(PoisonError::into_inner);
    ENV_CHECKED.store(true, Ordering::Release);
    let Some(fp) = guard.as_mut() else {
        return WriteOutcome::Full;
    };
    if fp.fired || fp.point != point {
        return WriteOutcome::Full;
    }
    let before = fp.written;
    fp.written = before + len as u64;
    if fp.written <= fp.at {
        // Threshold not reached yet (firing exactly *at* the limit
        // would tear zero bytes of the next write instead).
        return WriteOutcome::Full;
    }
    fp.fired = true;
    let keep = (fp.at.saturating_sub(before)) as usize;
    match fp.action {
        FailAction::Torn => WriteOutcome::TornExit(keep),
        FailAction::Short => WriteOutcome::Short(keep),
        FailAction::Error => WriteOutcome::Error(keep),
        // The crossing write never touches the file: the file holds
        // exactly the writes that fit under the threshold — a crash at
        // a clean write boundary.
        FailAction::Exit => WriteOutcome::ExitNow,
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::sync::MutexGuard;

    /// The failpoint is process-global: every test that installs,
    /// clears or consults it holds this lock so the default parallel
    /// test harness cannot interleave two arming windows.
    fn serial() -> MutexGuard<'static, ()> {
        static LOCK: Mutex<()> = Mutex::new(());
        LOCK.lock().unwrap_or_else(PoisonError::into_inner)
    }

    #[test]
    fn unarmed_is_full() {
        let _guard = serial();
        clear();
        assert_eq!(on_write("wal.append", 100), WriteOutcome::Full);
    }

    #[test]
    fn parse_rejects_malformed_specs() {
        assert!(parse("wal.append").is_err());
        assert!(parse("wal.append=torn").is_err());
        assert!(parse("wal.append=explode@5").is_err());
        assert!(parse("wal.append=torn@lots").is_err());
        assert!(parse("wal.append=torn@5").is_ok());
    }

    #[test]
    fn torn_fires_once_at_cumulative_threshold() {
        let _guard = serial();
        install("p=torn@25").unwrap();
        assert_eq!(on_write("other", 100), WriteOutcome::Full);
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        // 20 written, threshold 25: this write tears after 5 bytes.
        assert_eq!(on_write("p", 10), WriteOutcome::TornExit(5));
        // Already fired.
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        clear();
    }

    #[test]
    fn exit_fires_at_a_write_boundary() {
        let _guard = serial();
        install("p=exit@15").unwrap();
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        // The write crossing byte 15 never lands: clean boundary.
        assert_eq!(on_write("p", 10), WriteOutcome::ExitNow);
        clear();
    }

    #[test]
    fn short_keeps_prefix() {
        let _guard = serial();
        install("p=short@3").unwrap();
        assert_eq!(on_write("p", 10), WriteOutcome::Short(3));
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        clear();
    }

    #[test]
    fn error_keeps_prefix_once() {
        let _guard = serial();
        install("p=error@14").unwrap();
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        assert_eq!(on_write("p", 10), WriteOutcome::Error(4));
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        clear();
    }

    #[test]
    fn exact_boundary_tears_next_write_at_zero() {
        let _guard = serial();
        install("p=torn@10").unwrap();
        assert_eq!(on_write("p", 10), WriteOutcome::Full);
        assert_eq!(on_write("p", 10), WriteOutcome::TornExit(0));
        clear();
    }
}
