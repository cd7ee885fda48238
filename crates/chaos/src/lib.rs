//! Deterministic fault injection for the whole workspace.
//!
//! Crash-safety claims are only worth what their failure injection can
//! prove. This crate is the one failpoint engine every layer shares:
//! `reno-dse`'s store/journal/lease/lock writes and `reno-sample`'s
//! checkpointing, restore, warm-replay, and measure-window paths all pass
//! through **named injection points**, so one harness can enumerate every
//! registered site and kill (or corrupt) a run at each of them.
//!
//! # Arming a failpoint
//!
//! ```text
//! RENO_FAILPOINT=<site>[@<ctx>][:<n>[+]][:<mode>]
//! ```
//!
//! * `site` — the injection point's registered name (e.g.
//!   `dse:store-object`, `sample:segment-restore`), or `*`: every IO-site
//!   hit ([`write_all`], any site) counts toward the ordinal, and no other
//!   hit does. `RENO_FAILPOINT=*:<n>:half-write` therefore tears the n-th
//!   durable write of the process, whichever site it belongs to — the
//!   kill-at-every-IO-point loops of the `reno-dse` crash-resume suite.
//! * `@<ctx>` — optional context filter: only hits whose context value
//!   (e.g. the segment index) equals `ctx` count toward the ordinal.
//!   Context-qualified specs are **schedule-independent**: a given
//!   context's hits are sequenced by its own code path, so the n-th hit is
//!   the same dynamic event at any worker count.
//! * `<n>` — 1-based ordinal of the matching hit that fires (default 1).
//!   `<n>+` is sticky: every matching hit from the n-th on fires (for
//!   persistent faults like a corrupt checkpoint that must also defeat the
//!   retry).
//! * `<mode>` — one of `half-write` | `flush` | `abort` | `panic` |
//!   `corrupt` (default `abort`). IO sites honor all five; plain sites
//!   treat `half-write`/`flush` as `abort` and ignore `corrupt` (nothing
//!   to corrupt); byte-buffer sites flip one byte on `corrupt`.
//!
//! # Instrumenting code
//!
//! ```ignore
//! reno_chaos::failpoint!("sample:warm-replay", segment_index);
//! reno_chaos::failpoint_bytes!("sample:segment-restore", idx, &mut bytes);
//! reno_chaos::write_all("dse:journal-append", &mut file, line)?;
//! ```
//!
//! [`failpoint!`] is zero-cost when off: one relaxed atomic load guards
//! everything else. Hit counting, registration, and arming state live
//! behind that gate.
//!
//! # Test harnesses
//!
//! In-process suites arm programmatically ([`arm`] / [`disarm`]) because
//! environment mutation races under the threaded test runner, and use
//! recording mode ([`set_recording`] / [`counts`] / [`reset_counts`]) to
//! enumerate every site a healthy run actually hits — the foundation of
//! the kill-at-every-site loops in `crates/sample/tests/crash_sample.rs`
//! and `crates/dse/tests/crash_resume.rs`.

use std::collections::BTreeMap;
use std::fs::File;
use std::io::{self, Write};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Mutex, MutexGuard, OnceLock};

/// The environment variable arming one named failpoint.
pub const ENV_FAILPOINT: &str = "RENO_FAILPOINT";
/// The site name that matches every IO-site hit ([`write_all`]) and
/// nothing else.
const ANY_IO_SITE: &str = "*";

/// What an armed failpoint does on the hit it targets.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FailMode {
    /// Abort the process before the guarded action (IO sites: before any
    /// byte is written). The in-process stand-in for `kill -9`.
    Abort,
    /// IO sites: write half the bytes, flush, sync, abort — a torn write.
    /// Plain sites treat this as [`FailMode::Abort`].
    HalfWrite,
    /// IO sites: complete the write, flush, sync, then abort — dies after
    /// durability but before the caller learns of it. Plain sites treat
    /// this as [`FailMode::Abort`].
    Flush,
    /// Panic with a deterministic message (exercises unwind isolation).
    Panic,
    /// Byte-buffer sites: flip the first byte of the buffer (xor `0xA5`
    /// — the header/magic region validation always checks) and proceed.
    /// IO sites write the corrupted frame. Plain sites ignore it.
    Corrupt,
}

impl FailMode {
    fn parse(s: &str) -> Option<FailMode> {
        Some(match s {
            "abort" => FailMode::Abort,
            "half-write" => FailMode::HalfWrite,
            "flush" => FailMode::Flush,
            "panic" => FailMode::Panic,
            "corrupt" => FailMode::Corrupt,
            _ => return None,
        })
    }
}

/// A parsed failpoint spec (see the crate docs for the syntax).
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ArmedSpec {
    /// Site name the spec targets.
    pub site: String,
    /// Context filter: `None` matches any context.
    pub ctx: Option<u64>,
    /// 1-based ordinal of the matching hit that fires.
    pub nth: u64,
    /// Fire on every matching hit from `nth` on, not just the n-th.
    pub sticky: bool,
    /// Action taken when the spec fires.
    pub mode: FailMode,
}

impl ArmedSpec {
    /// Parses `<site>[@<ctx>][:<n>[+]][:<mode>]`.
    ///
    /// Site names may themselves contain `:` (`dse:store-object`), so the
    /// optional ordinal and mode are recognised from the right: a trailing
    /// mode word is popped first, then a trailing digit-led part is taken
    /// as the ordinal; whatever remains is the site (with optional `@ctx`).
    ///
    /// # Errors
    ///
    /// Returns a human-readable description of the first malformed field.
    pub fn parse(s: &str) -> Result<ArmedSpec, String> {
        let mut parts: Vec<&str> = s.split(':').collect();
        let mut mode = FailMode::Abort;
        if let Some(m) = parts.last().copied().and_then(FailMode::parse) {
            mode = m;
            parts.pop();
        }
        let mut nth = 1u64;
        let mut sticky = false;
        if let Some(part) = parts.last().copied() {
            if part.starts_with(|c: char| c.is_ascii_digit()) {
                let (num, plus) = match part.strip_suffix('+') {
                    Some(num) => (num, true),
                    None => (part, false),
                };
                match num.parse::<u64>() {
                    Ok(n) if n >= 1 => {
                        nth = n;
                        sticky = plus;
                        parts.pop();
                    }
                    _ => return Err(format!("`{part}` is not an ordinal >= 1")),
                }
            }
        }
        let head = parts.join(":");
        if head.is_empty() {
            return Err("empty site name".to_string());
        }
        let (site, ctx) = match head.rsplit_once('@') {
            Some((site, ctx)) => {
                let ctx = ctx
                    .parse::<u64>()
                    .map_err(|_| format!("context `{ctx}` is not a u64"))?;
                (site.to_string(), Some(ctx))
            }
            None => (head, None),
        };
        if site.is_empty() {
            return Err("empty site name".to_string());
        }
        Ok(ArmedSpec {
            site,
            ctx,
            nth,
            sticky,
            mode,
        })
    }
}

struct Armed {
    spec: ArmedSpec,
    /// Hits so far that matched the spec's site + context filter.
    matched: u64,
}

struct State {
    armed: Option<Armed>,
    recording: bool,
    /// Hits per `(site, ctx)` since the last [`reset_counts`].
    counts: BTreeMap<(&'static str, u64), u64>,
}

/// The single fast-path gate: true iff a spec is armed or recording is on.
static ENABLED: AtomicBool = AtomicBool::new(false);

static STATE: Mutex<State> = Mutex::new(State {
    armed: None,
    recording: false,
    counts: BTreeMap::new(),
});

fn state() -> MutexGuard<'static, State> {
    // A poisoned lock only means some thread panicked after releasing its
    // hit decision (we never panic while holding it); the state is sound.
    STATE
        .lock()
        .unwrap_or_else(std::sync::PoisonError::into_inner)
}

fn refresh_enabled(st: &State) {
    ENABLED.store(st.armed.is_some() || st.recording, Ordering::SeqCst);
}

/// Parses `RENO_FAILPOINT` once, on the first gate check.
fn env_init() {
    static INIT: OnceLock<()> = OnceLock::new();
    INIT.get_or_init(|| {
        if let Ok(v) = std::env::var(ENV_FAILPOINT) {
            match ArmedSpec::parse(&v) {
                Ok(spec) => {
                    let mut st = state();
                    st.armed = Some(Armed { spec, matched: 0 });
                    refresh_enabled(&st);
                }
                Err(e) => eprintln!("reno-chaos: ignoring {ENV_FAILPOINT}={v}: {e}"),
            }
        }
    });
}

/// The fast-path gate the [`failpoint!`] macro checks: one relaxed atomic
/// load when nothing is armed and recording is off.
#[inline]
pub fn enabled() -> bool {
    env_init();
    ENABLED.load(Ordering::Relaxed)
}

/// Counts one hit of `(site, ctx)` and decides whether the armed spec
/// fires on it; `io` marks a [`write_all`] hit, which `*` also matches.
/// The lock is released before any action is taken.
fn note_hit(site: &'static str, ctx: u64, io: bool) -> Option<FailMode> {
    let mut st = state();
    *st.counts.entry((site, ctx)).or_insert(0) += 1;
    let armed = st.armed.as_mut()?;
    let site_matches = if armed.spec.site == ANY_IO_SITE {
        io
    } else {
        armed.spec.site == site
    };
    if !site_matches || armed.spec.ctx.is_some_and(|c| c != ctx) {
        return None;
    }
    armed.matched += 1;
    let n = armed.spec.nth;
    (armed.matched == n || (armed.spec.sticky && armed.matched >= n)).then_some(armed.spec.mode)
}

fn perform(mode: FailMode, site: &'static str, ctx: u64) {
    match mode {
        FailMode::Panic => panic!("chaos: injected panic at {site}@{ctx}"),
        FailMode::Corrupt => {} // nothing to corrupt at a plain site
        FailMode::Abort | FailMode::HalfWrite | FailMode::Flush => {
            eprintln!("chaos: aborting at {site}@{ctx}");
            std::process::abort();
        }
    }
}

/// Hit hook for plain (non-IO, non-buffer) sites. Use the [`failpoint!`]
/// macro instead of calling this directly — the macro carries the
/// zero-cost-when-off gate.
#[doc(hidden)]
pub fn fire(site: &'static str, ctx: u64) {
    if let Some(mode) = note_hit(site, ctx, false) {
        perform(mode, site, ctx);
    }
}

/// Hit hook for byte-buffer sites: [`FailMode::Corrupt`] flips the first
/// byte of `bytes` (xor `0xA5`) — the header/magic region every serialized
/// format validates, so the corruption is *deterministically detectable*
/// (a flip in the middle of a checkpoint can land in raw page data and
/// restore silently). Every other mode behaves as at a plain site. Use the
/// [`failpoint_bytes!`] macro.
#[doc(hidden)]
pub fn fire_bytes(site: &'static str, ctx: u64, bytes: &mut [u8]) {
    if let Some(mode) = note_hit(site, ctx, false) {
        match mode {
            FailMode::Corrupt => {
                if let Some(b) = bytes.first_mut() {
                    *b ^= 0xA5;
                }
            }
            m => perform(m, site, ctx),
        }
    }
}

/// Declares a named failpoint. `failpoint!(site)` or
/// `failpoint!(site, ctx)` where `ctx` is any integer context (e.g. a
/// segment index) the arming spec can filter on. Expands to a single
/// relaxed atomic load when nothing is armed.
#[macro_export]
macro_rules! failpoint {
    ($site:expr) => {
        $crate::failpoint!($site, 0u64)
    };
    ($site:expr, $ctx:expr) => {
        if $crate::enabled() {
            $crate::fire($site, $ctx as u64);
        }
    };
}

/// Declares a byte-buffer failpoint: like [`failpoint!`], but an armed
/// [`FailMode::Corrupt`] deterministically flips one byte of `$bytes`
/// (a `&mut [u8]`) instead of killing anything.
#[macro_export]
macro_rules! failpoint_bytes {
    ($site:expr, $ctx:expr, $bytes:expr) => {
        if $crate::enabled() {
            $crate::fire_bytes($site, $ctx as u64, $bytes);
        }
    };
}

// ---------------------------------------------------------------------------
// IO sites.
// ---------------------------------------------------------------------------

fn torn_write_abort(file: &mut File, bytes: &[u8]) -> ! {
    let _ = file.write_all(&bytes[..bytes.len() / 2]);
    let _ = file.flush();
    let _ = file.sync_all();
    std::process::abort();
}

/// Writes `bytes` to `file` through the failpoint engine. The hit counts
/// toward the named site and toward the `*` site; the armed spec decides
/// the outcome.
pub fn write_all(site: &'static str, file: &mut File, bytes: &[u8]) -> io::Result<()> {
    if !enabled() {
        return file.write_all(bytes);
    }
    match note_hit(site, 0, true) {
        None => file.write_all(bytes),
        Some(FailMode::Abort) => {
            eprintln!("chaos: aborting before write at {site}");
            std::process::abort();
        }
        Some(FailMode::HalfWrite) => torn_write_abort(file, bytes),
        Some(FailMode::Flush) => {
            let _ = file.write_all(bytes);
            let _ = file.flush();
            let _ = file.sync_all();
            std::process::abort();
        }
        Some(FailMode::Panic) => panic!("chaos: injected panic at {site}"),
        Some(FailMode::Corrupt) => {
            let mut copy = bytes.to_vec();
            if let Some(b) = copy.first_mut() {
                *b ^= 0xA5;
            }
            file.write_all(&copy)
        }
    }
}

// ---------------------------------------------------------------------------
// Test-harness controls.
// ---------------------------------------------------------------------------

/// Arms `spec` programmatically, replacing any armed spec (env included).
/// In-process suites use this instead of `RENO_FAILPOINT` because
/// environment mutation races under the threaded test runner.
///
/// # Errors
///
/// Returns the parse error for a malformed spec (nothing is armed).
pub fn arm(spec: &str) -> Result<(), String> {
    let parsed = ArmedSpec::parse(spec)?;
    env_init();
    let mut st = state();
    st.armed = Some(Armed {
        spec: parsed,
        matched: 0,
    });
    refresh_enabled(&st);
    Ok(())
}

/// Disarms any armed spec (programmatic or environment).
pub fn disarm() {
    env_init();
    let mut st = state();
    st.armed = None;
    refresh_enabled(&st);
}

/// Turns hit recording on or off. While recording (or armed), every
/// [`failpoint!`] hit registers its site and bumps its `(site, ctx)`
/// counter; [`counts`] then enumerates every site a run actually reached.
pub fn set_recording(on: bool) {
    env_init();
    let mut st = state();
    st.recording = on;
    refresh_enabled(&st);
}

/// Clears all `(site, ctx)` hit counters.
pub fn reset_counts() {
    state().counts.clear();
}

/// Hit counts since the last [`reset_counts`], as `(site, ctx, hits)`
/// sorted by site then context — deterministic, because each context's
/// hits are sequenced by its own code path.
pub fn counts() -> Vec<(&'static str, u64, u64)> {
    state()
        .counts
        .iter()
        .map(|(&(site, ctx), &hits)| (site, ctx, hits))
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The arming/recording state is process-global; tests touching it
    /// serialize here.
    static TLOCK: Mutex<()> = Mutex::new(());

    fn lock() -> MutexGuard<'static, ()> {
        TLOCK
            .lock()
            .unwrap_or_else(std::sync::PoisonError::into_inner)
    }

    #[test]
    fn spec_parsing_accepts_the_documented_grammar() {
        assert_eq!(
            ArmedSpec::parse("dse:store-object").unwrap(),
            ArmedSpec {
                site: "dse:store-object".to_string(),
                ctx: None,
                nth: 1,
                sticky: false,
                mode: FailMode::Abort,
            }
        );
        assert_eq!(
            ArmedSpec::parse("sample:segment-restore@3:2+:corrupt").unwrap(),
            ArmedSpec {
                site: "sample:segment-restore".to_string(),
                ctx: Some(3),
                nth: 2,
                sticky: true,
                mode: FailMode::Corrupt,
            }
        );
        assert_eq!(ArmedSpec::parse("x:half-write").unwrap().nth, 1);
        let any_io = ArmedSpec::parse("*:3:half-write").unwrap();
        assert_eq!(
            (any_io.site.as_str(), any_io.nth, any_io.mode),
            (ANY_IO_SITE, 3, FailMode::HalfWrite)
        );
        assert!(ArmedSpec::parse("").is_err());
        assert!(ArmedSpec::parse("@7:1").is_err());
        assert!(ArmedSpec::parse("x:0").is_err(), "ordinals are 1-based");
        assert!(ArmedSpec::parse("x:3garbage").is_err());
        assert!(ArmedSpec::parse("x@notanum:1").is_err());
        // Colons inside a site name survive when no ordinal/mode trails.
        assert_eq!(
            ArmedSpec::parse("sample:warm-replay@0").unwrap().site,
            "sample:warm-replay"
        );
    }

    #[test]
    fn recording_counts_hits_per_site_and_context() {
        let _g = lock();
        set_recording(true);
        reset_counts();
        failpoint!("test:alpha");
        failpoint!("test:alpha", 7);
        failpoint!("test:alpha", 7);
        failpoint!("test:beta", 1);
        let c = counts();
        let get = |site: &str, ctx: u64| {
            c.iter()
                .find(|&&(s, x, _)| s == site && x == ctx)
                .map(|&(_, _, h)| h)
        };
        assert_eq!(get("test:alpha", 0), Some(1));
        assert_eq!(get("test:alpha", 7), Some(2));
        assert_eq!(get("test:beta", 1), Some(1));
        set_recording(false);
        reset_counts();
    }

    #[test]
    fn corrupt_mode_flips_the_header_byte_at_the_armed_ordinal() {
        let _g = lock();
        arm("test:bytes@4:2:corrupt").unwrap();
        let mut b1 = vec![0u8; 8];
        failpoint_bytes!("test:bytes", 4, &mut b1); // hit 1: clean
        assert_eq!(b1, vec![0u8; 8]);
        let mut b2 = vec![0u8; 8];
        failpoint_bytes!("test:bytes", 4, &mut b2); // hit 2: fires
        assert_eq!(b2[0], 0xA5);
        let mut b3 = vec![0u8; 8];
        failpoint_bytes!("test:bytes", 4, &mut b3); // hit 3: non-sticky, clean
        assert_eq!(b3, vec![0u8; 8]);
        disarm();
    }

    #[test]
    fn sticky_specs_fire_on_every_hit_from_the_ordinal_on() {
        let _g = lock();
        arm("test:sticky:2+:corrupt").unwrap();
        for expect_flip in [false, true, true, true] {
            let mut b = vec![0u8; 3];
            failpoint_bytes!("test:sticky", 0, &mut b);
            assert_eq!(b[0] == 0xA5, expect_flip);
        }
        disarm();
    }

    #[test]
    fn context_filter_ignores_other_contexts() {
        let _g = lock();
        arm("test:ctxf@2:1:corrupt").unwrap();
        let mut other = vec![0u8; 3];
        failpoint_bytes!("test:ctxf", 1, &mut other);
        assert_eq!(other, vec![0u8; 3], "context 1 never matches @2");
        let mut target = vec![0u8; 3];
        failpoint_bytes!("test:ctxf", 2, &mut target);
        assert_eq!(target[0], 0xA5);
        disarm();
    }

    #[test]
    fn any_io_site_counts_writes_at_every_site_and_nothing_else() {
        let _g = lock();
        let path = std::env::temp_dir().join(format!("reno-chaos-any-io-{}", std::process::id()));
        let mut file = File::create(&path).unwrap();
        arm("*:2:corrupt").unwrap();
        failpoint!("test:plain"); // not an IO hit: never counts
        let mut buf = vec![0u8; 3];
        failpoint_bytes!("test:buf", 0, &mut buf);
        assert_eq!(buf, vec![0u8; 3]);
        write_all("test:io-a", &mut file, &[0, 0]).unwrap(); // IO hit 1
        write_all("test:io-b", &mut file, &[0, 0]).unwrap(); // IO hit 2: fires
        write_all("test:io-a", &mut file, &[0, 0]).unwrap();
        disarm();
        drop(file);
        assert_eq!(std::fs::read(&path).unwrap(), vec![0, 0, 0xA5, 0, 0, 0]);
        let _ = std::fs::remove_file(&path);
    }

    #[test]
    fn disarmed_and_off_is_inert() {
        let _g = lock();
        disarm();
        set_recording(false);
        // With the gate off the macro must not even touch the state.
        failpoint!("test:inert");
        assert!(!enabled());
    }
}
