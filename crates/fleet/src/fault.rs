//! Deterministic fault injection for fleet campaigns.
//!
//! Long sharded campaigns must survive a shard dying mid-run — and that
//! claim is only testable if failures can be *injected* at precise,
//! reproducible points and the recovery replayed deterministically. A
//! [`FaultPlan`] is a small list of [`Fault`]s, each naming a shard, a
//! trigger point (a completed-cell count) and an attempt gate. The
//! coordinator ([`run_fleet`](crate::coordinator::run_fleet)) consults
//! the plan directly
//! ([`FleetConfig::fault`](crate::coordinator::FleetConfig)); the CLI
//! reads it from the [`FAULT_ENV`] (`GRIFFIN_FAULT`) environment
//! variable. A fault gated on `attempt=0` (the default) fires exactly
//! once and the retry recovers; `attempt=any` fires on every attempt.
//!
//! The plan has a compact textual form (what the env var carries),
//! faults separated by `;`:
//!
//! ```text
//! kill:shard=1:after=2            shard 1 dies after 2 completions (attempt 0)
//! kill:shard=0:after=0:attempt=any  shard 0 dies at once on every attempt
//! corrupt-cache:shard=2           shard 2's cache is torn mid-write
//! truncate-journal:after=3        the journal loses its tail mid-append
//! ```
//!
//! Determinism: "after N completions" is implemented by *truncating the
//! shard's work list* to its first N remaining cells (grid order), so
//! the set of journaled cells at the moment of death is a pure function
//! of the plan — no racing a concurrent executor.

use std::fmt;
use std::io;
use std::path::Path;

/// Environment variable carrying a [`FaultPlan`] in its textual form.
pub const FAULT_ENV: &str = "GRIFFIN_FAULT";

/// Which shard attempts a fault fires on.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AttemptGate {
    /// Fire only on this attempt number (default: attempt 0 — the fault
    /// happens once, the retry runs clean).
    Only(usize),
    /// Fire on every attempt (drives the retries-exhausted path).
    Any,
}

impl AttemptGate {
    /// Whether the gate admits `attempt`.
    pub fn admits(self, attempt: usize) -> bool {
        match self {
            AttemptGate::Only(a) => a == attempt,
            AttemptGate::Any => true,
        }
    }
}

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The attempt running `shard` dies abruptly after completing (and
    /// streaming) `after` of its remaining cells: no `shard_done`.
    /// Exercises the coordinator's retry path.
    Kill {
        /// Shard whose attempt dies.
        shard: usize,
        /// Remaining-cell completions before death.
        after: usize,
        /// Attempt gate.
        attempt: AttemptGate,
    },
    /// The shard's cache directory is torn as if the worker died
    /// mid-write: its newest entry is truncated and a partial `.tmp`
    /// file is left behind (see [`corrupt_shard_cache`]). Exercises the
    /// merge's invalid-entry skip and the final replay's re-simulation.
    CorruptCache {
        /// Shard whose cache is torn.
        shard: usize,
        /// Attempt gate.
        attempt: AttemptGate,
    },
    /// The coordinator "crashes" mid-append: after the `after`-th
    /// journal append (campaign-wide), a torn, newline-less half entry
    /// is written and the campaign aborts with a terminal
    /// `campaign_failed`. Exercises `--resume`'s truncation tolerance.
    TruncateJournal {
        /// Campaign-wide journal appends before the torn write.
        after: usize,
    },
}

/// Fault-plan parse failure.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct FaultError {
    /// Human-readable description.
    pub msg: String,
}

impl fmt::Display for FaultError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "fault plan error: {}", self.msg)
    }
}

impl std::error::Error for FaultError {}

fn fail<T>(msg: impl Into<String>) -> Result<T, FaultError> {
    Err(FaultError { msg: msg.into() })
}

/// Canonical `:attempt=…` suffix of a gate (empty for the default
/// gate, attempt 0).
fn write_gate(f: &mut fmt::Formatter<'_>, g: AttemptGate) -> fmt::Result {
    match g {
        AttemptGate::Only(0) => Ok(()),
        AttemptGate::Only(a) => write!(f, ":attempt={a}"),
        AttemptGate::Any => write!(f, ":attempt=any"),
    }
}

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let gate = write_gate;
        match *self {
            Fault::Kill {
                shard,
                after,
                attempt,
            } => {
                write!(f, "kill:shard={shard}:after={after}")?;
                gate(f, attempt)
            }
            Fault::CorruptCache { shard, attempt } => {
                write!(f, "corrupt-cache:shard={shard}")?;
                gate(f, attempt)
            }
            Fault::TruncateJournal { after } => write!(f, "truncate-journal:after={after}"),
        }
    }
}

/// A deterministic list of faults to inject into one campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The shard/journal faults, in plan order.
    pub faults: Vec<Fault>,
}

impl fmt::Display for FaultPlan {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        for (i, fault) in self.faults.iter().enumerate() {
            if i > 0 {
                write!(f, ";")?;
            }
            write!(f, "{fault}")?;
        }
        Ok(())
    }
}

/// `key=value` fields of one fault clause, after the kind token.
#[derive(Default)]
struct Fields {
    shard: Option<usize>,
    after: Option<usize>,
    attempt: Option<AttemptGate>,
}

impl Fields {
    fn parse(parts: &mut std::str::Split<'_, char>, kind: &str) -> Result<Fields, FaultError> {
        let mut f = Fields::default();
        for part in parts {
            let Some((key, value)) = part.split_once('=') else {
                return fail(format!("`{kind}`: expected key=value, got `{part}`"));
            };
            let num = || -> Result<usize, FaultError> {
                value.parse().map_err(|_| FaultError {
                    msg: format!("`{kind}`: bad number `{value}` for `{key}`"),
                })
            };
            match key {
                "shard" => f.shard = Some(num()?),
                "after" => f.after = Some(num()?),
                "attempt" if value == "any" => f.attempt = Some(AttemptGate::Any),
                "attempt" => f.attempt = Some(AttemptGate::Only(num()?)),
                other => return fail(format!("`{kind}`: unknown field `{other}`")),
            }
        }
        Ok(f)
    }

    fn shard(&self, kind: &str) -> Result<usize, FaultError> {
        self.shard
            .map_or_else(|| fail(format!("`{kind}` needs shard=N")), Ok)
    }

    fn after(&self, kind: &str) -> Result<usize, FaultError> {
        self.after
            .map_or_else(|| fail(format!("`{kind}` needs after=N")), Ok)
    }

    fn gate(&self) -> AttemptGate {
        self.attempt.unwrap_or(AttemptGate::Only(0))
    }
}

impl FaultPlan {
    /// Parses the textual form (see the module docs).
    ///
    /// # Errors
    ///
    /// [`FaultError`] on an unknown fault kind, a malformed field, or a
    /// missing required field.
    pub fn parse(s: &str) -> Result<FaultPlan, FaultError> {
        let mut faults = Vec::new();
        for clause in s.split(';') {
            let clause = clause.trim();
            if clause.is_empty() {
                continue;
            }
            let mut parts = clause.split(':');
            let kind = parts.next().expect("split yields at least one part");
            // The kind is judged before its fields, so an unknown kind
            // reads as unknown whatever fields it carries.
            let fields = Fields::parse(&mut parts, kind);
            let fault = match kind {
                "kill" => fields.and_then(|f| {
                    Ok(Fault::Kill {
                        shard: f.shard(kind)?,
                        after: f.after(kind)?,
                        attempt: f.gate(),
                    })
                }),
                "corrupt-cache" => fields.and_then(|f| {
                    Ok(Fault::CorruptCache {
                        shard: f.shard(kind)?,
                        attempt: f.gate(),
                    })
                }),
                "truncate-journal" => fields.and_then(|f| {
                    Ok(Fault::TruncateJournal {
                        after: f.after(kind)?,
                    })
                }),
                other => fail(format!("unknown fault `{other}`")),
            };
            faults.push(fault?);
        }
        if faults.is_empty() {
            return fail("empty fault plan");
        }
        Ok(FaultPlan { faults })
    }

    /// Completions before a [`Fault::Kill`] matching (`shard`,
    /// `attempt`) fires, if any.
    pub fn kill_after(&self, shard: usize, attempt: usize) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Kill {
                shard: s,
                after,
                attempt: g,
            } if s == shard && g.admits(attempt) => Some(after),
            _ => None,
        })
    }

    /// Whether a [`Fault::CorruptCache`] matches (`shard`, `attempt`).
    pub fn corrupts_cache(&self, shard: usize, attempt: usize) -> bool {
        self.faults.iter().any(|f| {
            matches!(*f, Fault::CorruptCache { shard: s, attempt: g }
                if s == shard && g.admits(attempt))
        })
    }

    /// Campaign-wide journal appends before a [`Fault::TruncateJournal`]
    /// fires, if any.
    pub fn journal_truncate_after(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            Fault::TruncateJournal { after } => Some(after),
            _ => None,
        })
    }
}

/// Reads a [`FaultPlan`] from [`FAULT_ENV`] (`None` when unset/blank).
///
/// # Errors
///
/// [`FaultError`] when the variable is set but unparsable — a typoed
/// chaos experiment must fail loudly, not silently run a clean
/// campaign.
pub fn plan_from_env() -> Result<Option<FaultPlan>, FaultError> {
    match std::env::var(FAULT_ENV) {
        Ok(s) if !s.trim().is_empty() => FaultPlan::parse(&s).map(Some),
        _ => Ok(None),
    }
}

/// Tears a shard cache directory the way a shard killed mid-write
/// would: the lexicographically last `.json` entry is truncated to half
/// its bytes (an unparsable torn rename target) and a partial
/// `fault.tmp.0.0` temp file is left behind. Recovery is the normal
/// pipeline: `merge_dirs` skips both, and the final replay re-simulates
/// whatever the torn entry held.
///
/// # Errors
///
/// Propagates filesystem errors; a missing or empty directory only gets
/// the stray temp file.
pub fn corrupt_shard_cache(dir: impl AsRef<Path>) -> io::Result<()> {
    let dir = dir.as_ref();
    std::fs::create_dir_all(dir)?;
    let mut entries: Vec<_> = std::fs::read_dir(dir)?
        .filter_map(|e| e.ok().map(|e| e.path()))
        .filter(|p| p.extension().is_some_and(|x| x == "json"))
        .collect();
    entries.sort();
    if let Some(victim) = entries.last() {
        let len = std::fs::metadata(victim)?.len();
        std::fs::OpenOptions::new()
            .write(true)
            .open(victim)?
            .set_len(len / 2)?;
    }
    std::fs::write(dir.join("fault.tmp.0.0"), "{\"speedup\":")?;
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn plans_roundtrip_through_their_textual_form() {
        let plans = [
            "kill:shard=1:after=2",
            "kill:shard=0:after=1:attempt=any",
            "kill:shard=3:after=0:attempt=2",
            "corrupt-cache:shard=2",
            "truncate-journal:after=3",
            "kill:shard=1:after=2;corrupt-cache:shard=1;truncate-journal:after=9",
        ];
        for text in plans {
            let plan = FaultPlan::parse(text).unwrap();
            assert_eq!(plan.to_string(), text, "canonical form is stable");
            assert_eq!(FaultPlan::parse(&plan.to_string()), Ok(plan));
        }
    }

    #[test]
    fn malformed_plans_are_rejected() {
        for bad in [
            "",
            "  ;  ",
            "warp-core-breach:shard=1",
            "kill:shard=1",              // missing after
            "kill:after=2",              // missing shard
            "kill:shard=x:after=2",      // bad number
            "kill:shard=1:after=2:zap",  // not key=value
            "kill:shard=1:after=2:k=v",  // unknown field
            "truncate-journal:shard=1",  // missing after
            "corrupt-cache:attempt=any", // missing shard
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn queries_respect_shard_and_attempt_gates() {
        let plan =
            FaultPlan::parse("kill:shard=1:after=2;kill:shard=0:after=1:attempt=any").unwrap();
        assert_eq!(plan.kill_after(1, 0), Some(2), "default gate is attempt 0");
        assert_eq!(plan.kill_after(1, 1), None, "retry runs clean");
        assert_eq!(plan.kill_after(2, 0), None, "wrong shard");
        assert_eq!(plan.kill_after(0, 5), Some(1), "`any` admits every attempt");
        assert!(!plan.corrupts_cache(1, 0));
        assert_eq!(plan.journal_truncate_after(), None);

        let plan = FaultPlan::parse("corrupt-cache:shard=2;truncate-journal:after=7").unwrap();
        assert!(plan.corrupts_cache(2, 0));
        assert!(!plan.corrupts_cache(2, 1));
        assert_eq!(plan.journal_truncate_after(), Some(7));
    }

    #[test]
    fn removed_host_faults_and_fields_are_refused() {
        for kind in ["partition", "refuse-spawn", "fail-pull", "corrupt-pull"] {
            let err = FaultPlan::parse(&format!("{kind}:host=h1:after=0")).unwrap_err();
            assert!(
                err.msg.contains(&format!("unknown fault `{kind}`")),
                "{err}"
            );
        }
        let err = FaultPlan::parse("kill:shard=1:host=h1:after=0").unwrap_err();
        assert!(err.msg.contains("unknown field `host`"), "{err}");
        let err = FaultPlan::parse("kill:shard=1:after=0:attempts=2").unwrap_err();
        assert!(err.msg.contains("unknown field `attempts`"), "{err}");
    }

    #[test]
    fn the_removed_stall_fault_is_unknown() {
        for kind in ["stall", "delay-heartbeats"] {
            for text in [
                format!("{kind}:shard=0:after=1"),
                format!("{kind}:shard=0:after=1:attempt=any"),
                format!("kill:shard=1:after=2;{kind}:shard=0:after=0"),
            ] {
                let err = FaultPlan::parse(&text).unwrap_err();
                assert!(
                    err.msg.contains(&format!("unknown fault `{kind}`")),
                    "{text}: {err}"
                );
            }
        }
    }

    #[test]
    fn corrupt_shard_cache_tears_the_newest_entry_and_drops_a_tmp() {
        let dir = std::env::temp_dir().join(format!(
            "griffin-fault-corrupt-{}-{:?}",
            std::process::id(),
            std::thread::current().id()
        ));
        let _ = std::fs::remove_dir_all(&dir);
        std::fs::create_dir_all(&dir).unwrap();
        std::fs::write(dir.join("aaaa.json"), "{\"ok\":1}").unwrap();
        std::fs::write(dir.join("zzzz.json"), "{\"ok\":2,\"pad\":\"xxxx\"}").unwrap();
        corrupt_shard_cache(&dir).unwrap();
        let torn = std::fs::read_to_string(dir.join("zzzz.json")).unwrap();
        assert!(torn.len() < "{\"ok\":2,\"pad\":\"xxxx\"}".len());
        assert_eq!(
            std::fs::read_to_string(dir.join("aaaa.json")).unwrap(),
            "{\"ok\":1}",
            "only the lexicographically last entry is torn"
        );
        assert!(dir.join("fault.tmp.0.0").exists());
        // An empty (or missing) cache dir still gets the stray tmp.
        let empty = dir.join("nested");
        corrupt_shard_cache(&empty).unwrap();
        assert!(empty.join("fault.tmp.0.0").exists());
        std::fs::remove_dir_all(&dir).unwrap();
    }
}
