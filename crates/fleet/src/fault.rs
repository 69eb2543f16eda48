//! Deterministic fault injection for fleet campaigns.
//!
//! A fleet campaign must survive dying mid-run — and that claim is only
//! testable if failures can be *injected* at precise, reproducible
//! points and the recovery replayed deterministically. A [`FaultPlan`]
//! is a small list of [`Fault`]s, each firing at a trigger point (a
//! completed-cell count, or the end of the pass). The coordinator
//! ([`run_fleet`](crate::coordinator::run_fleet)) consults the plan
//! directly ([`FleetConfig::fault`](crate::coordinator::FleetConfig));
//! the CLI reads it from the [`FAULT_ENV`] (`GRIFFIN_FAULT`) environment
//! variable. Every fault fails the campaign (or, for `corrupt-cache`,
//! damages what a later run reads), and the recovery is always the same:
//! `--resume` with the fault cleared.
//!
//! The plan has a compact textual form (what the env var carries),
//! faults separated by `;`:
//!
//! ```text
//! kill:after=2                    the campaign dies after 2 completions
//! corrupt-cache                   the cache is torn mid-write after the pass
//! truncate-journal:after=3        the journal loses its tail mid-append
//! ```
//!
//! Determinism: "after N completions" is implemented by *truncating the
//! pass* to the first N cells (grid order) the journal does not hold,
//! so the set of journaled cells at the moment of death is a pure
//! function of the plan — no racing a concurrent executor.
//!
//! The `shard=` field of older plans is refused by name: a campaign is
//! one pass over the grid, so there is no shard to aim at.

use std::fmt;
use std::io;
use std::path::Path;

/// Environment variable carrying a [`FaultPlan`] in its textual form.
pub const FAULT_ENV: &str = "GRIFFIN_FAULT";

/// One injectable failure.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Fault {
    /// The campaign dies abruptly after completing (and streaming) the
    /// first `after` cells the journal does not hold, then ends with a
    /// terminal `campaign_failed`. The simulated crash: `--resume`
    /// finishes the campaign.
    Kill {
        /// Remaining-cell completions before death.
        after: usize,
    },
    /// Once the pass completes, the campaign's cache directory is torn
    /// as if a writer died mid-write: its newest entry is truncated and
    /// a partial `.tmp` file is left behind (see
    /// [`corrupt_shard_cache`]). The running campaign still reports from
    /// memory; the next run reading the directory skips both and
    /// re-simulates the torn entry.
    CorruptCache,
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

impl fmt::Display for Fault {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match *self {
            Fault::Kill { after } => write!(f, "kill:after={after}"),
            Fault::CorruptCache => write!(f, "corrupt-cache"),
            Fault::TruncateJournal { after } => write!(f, "truncate-journal:after={after}"),
        }
    }
}

/// A deterministic list of faults to inject into one campaign.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct FaultPlan {
    /// The faults, in plan order.
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

/// The `after=N` field of one fault clause, the only field a fault
/// takes, parsed from the parts after the kind token.
fn parse_after(
    parts: &mut std::str::Split<'_, char>,
    kind: &str,
) -> Result<Option<usize>, FaultError> {
    let mut after = None;
    for part in parts {
        let Some((key, value)) = part.split_once('=') else {
            return fail(format!("`{kind}`: expected key=value, got `{part}`"));
        };
        match key {
            "after" => {
                after = Some(value.parse().map_err(|_| FaultError {
                    msg: format!("`{kind}`: bad number `{value}` for `after`"),
                })?);
            }
            "shard" => {
                return fail(format!(
                    "`{kind}`: the `shard` field was removed; a campaign is one pass \
                     over the grid (drop `shard={value}`)"
                ))
            }
            other => return fail(format!("`{kind}`: unknown field `{other}`")),
        }
    }
    Ok(after)
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
            let after = parse_after(&mut parts, kind);
            let needs_after = |after: Option<usize>| {
                after.map_or_else(|| fail(format!("`{kind}` needs after=N")), Ok)
            };
            let fault = match kind {
                "kill" => after.and_then(|a| {
                    Ok(Fault::Kill {
                        after: needs_after(a)?,
                    })
                }),
                "corrupt-cache" => after.and_then(|a| match a {
                    None => Ok(Fault::CorruptCache),
                    Some(_) => fail("`corrupt-cache` takes no fields"),
                }),
                "truncate-journal" => after.and_then(|a| {
                    Ok(Fault::TruncateJournal {
                        after: needs_after(a)?,
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

    /// Completions before a [`Fault::Kill`] fires, if the plan has one.
    pub fn kill_after(&self) -> Option<usize> {
        self.faults.iter().find_map(|f| match *f {
            Fault::Kill { after } => Some(after),
            _ => None,
        })
    }

    /// Whether the plan tears the cache after the pass.
    pub fn corrupts_cache(&self) -> bool {
        self.faults.contains(&Fault::CorruptCache)
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

/// Tears a cache directory the way a writer killed mid-write would: the
/// lexicographically last `.json` entry is truncated to half its bytes
/// (an unparsable torn rename target) and a partial `fault.tmp.0.0`
/// temp file is left behind. Recovery is the normal pipeline: a cache
/// reading the directory treats the torn entry as a miss and never
/// reads the temp file, so the next replay re-simulates whatever the
/// torn entry held.
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
            "kill:after=2",
            "kill:after=0",
            "corrupt-cache",
            "truncate-journal:after=3",
            "kill:after=2;corrupt-cache;truncate-journal:after=9",
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
            "warp-core-breach:after=1",
            "kill",                  // missing after
            "kill:after=x",          // bad number
            "kill:after=2:zap",      // not key=value
            "kill:after=2:k=v",      // unknown field
            "truncate-journal",      // missing after
            "corrupt-cache:after=1", // takes no fields
        ] {
            assert!(FaultPlan::parse(bad).is_err(), "`{bad}` must be rejected");
        }
    }

    #[test]
    fn queries_read_the_plan() {
        let plan = FaultPlan::parse("kill:after=2").unwrap();
        assert_eq!(plan.kill_after(), Some(2));
        assert!(!plan.corrupts_cache());
        assert_eq!(plan.journal_truncate_after(), None);

        let plan = FaultPlan::parse("corrupt-cache;truncate-journal:after=7").unwrap();
        assert!(plan.corrupts_cache());
        assert_eq!(plan.kill_after(), None);
        assert_eq!(plan.journal_truncate_after(), Some(7));
    }

    #[test]
    fn the_removed_shard_field_is_refused_by_name() {
        for text in [
            "kill:shard=1:after=2",
            "kill:after=2:shard=0",
            "corrupt-cache:shard=2",
            "truncate-journal:after=3:shard=1",
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(
                err.msg.contains("the `shard` field was removed"),
                "{text}: {err}"
            );
        }
    }

    #[test]
    fn the_removed_attempt_field_is_unknown() {
        for text in [
            "kill:after=1:attempt=any",
            "kill:after=2:attempt=0",
            "corrupt-cache:attempt=1",
        ] {
            let err = FaultPlan::parse(text).unwrap_err();
            assert!(err.msg.contains("unknown field `attempt`"), "{text}: {err}");
        }
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
        let err = FaultPlan::parse("kill:host=h1:after=0").unwrap_err();
        assert!(err.msg.contains("unknown field `host`"), "{err}");
        let err = FaultPlan::parse("kill:after=0:attempts=2").unwrap_err();
        assert!(err.msg.contains("unknown field `attempts`"), "{err}");
    }

    #[test]
    fn the_removed_stall_fault_is_unknown() {
        for kind in ["stall", "delay-heartbeats"] {
            for text in [
                format!("{kind}:shard=0:after=1"),
                format!("{kind}:shard=0:after=1:attempt=any"),
                format!("kill:after=2;{kind}:shard=0:after=0"),
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
