//! Terminal rendering: a plain-ANSI dashboard and a line-mode fallback.
//!
//! Both renderers are pure `model → String` functions — no terminal
//! probing, no clocks — so they are unit-testable and the CLI decides
//! how to put the frames on screen (full-frame redraw for a TTY,
//! one-line-per-tick for `--no-tty` / pipes). Styling sticks to the
//! bold/dim/color SGR codes every ANSI terminal has supported since
//! forever; `ansi: false` strips them for dumb terminals and tests.

use crate::model::{CampaignModel, CampaignState, RateTracker};
use std::fmt::Write as _;

/// Renders `ms` as a compact human duration (`850ms`, `4.2s`, `3m04s`).
pub fn fmt_duration_ms(ms: u64) -> String {
    if ms < 1000 {
        format!("{ms}ms")
    } else if ms < 60_000 {
        format!("{:.1}s", ms as f64 / 1000.0)
    } else {
        format!("{}m{:02}s", ms / 60_000, (ms % 60_000) / 1000)
    }
}

/// ASCII progress bar of `frac` (clamped) over `width` cells.
fn bar(frac: f64, width: usize) -> String {
    let width = width.max(1);
    let filled = (frac.clamp(0.0, 1.0) * width as f64).round() as usize;
    let mut s = String::with_capacity(width + 2);
    s.push('[');
    for i in 0..width {
        s.push(if i < filled { '#' } else { '.' });
    }
    s.push(']');
    s
}

/// SGR helper: wraps `text` in `codes` when ANSI is on.
fn sgr(ansi: bool, codes: &str, text: &str) -> String {
    if ansi {
        format!("\x1b[{codes}m{text}\x1b[0m")
    } else {
        text.to_string()
    }
}

fn state_style(state: &CampaignState) -> &'static str {
    match state {
        CampaignState::Waiting => "2",          // dim
        CampaignState::Running => "1;36",       // bold cyan
        CampaignState::Done { .. } => "1;32",   // bold green
        CampaignState::Failed { .. } => "1;31", // bold red
    }
}

/// The full-screen dashboard frame (no cursor control — the caller
/// clears/homes between frames). `width` bounds the progress bar.
pub fn dashboard(model: &CampaignModel, rates: &RateTracker, width: usize, ansi: bool) -> String {
    let mut out = String::new();
    let title = if model.campaign.is_empty() {
        "(waiting for campaign_start)".to_string()
    } else {
        model.campaign.clone()
    };
    let _ = writeln!(
        out,
        "{} {} · {}",
        sgr(ansi, "1", "griffin fleet watch"),
        title,
        sgr(ansi, state_style(&model.state), model.state.tag()),
    );

    // Progress line: bar, counts, rates, ETA.
    let done = model.done();
    let barw = width.saturating_sub(30).clamp(10, 60);
    let _ = write!(
        out,
        "cells {} {done}/{}",
        bar(model.progress(), barw),
        model.total_cells
    );
    if let Some(ema) = rates.cells_per_sec() {
        let _ = write!(out, " · {ema:.1}/s");
        if !model.state.is_terminal() {
            if let Some(eta) = rates.eta_ms(model.total_cells.saturating_sub(done)) {
                let _ = write!(out, " · eta {}", fmt_duration_ms(eta));
            }
        }
    }
    if let Some(cum) = model.cumulative_cells_per_sec() {
        let _ = write!(out, " · {cum:.1}/s overall");
    }
    out.push('\n');

    // Counter line.
    let _ = write!(
        out,
        "cache {} hit / {} events",
        model.cache_hits, model.cell_events
    );
    if let Some(r) = model.cache_hit_ratio() {
        let _ = write!(out, " ({:.0}%)", r * 100.0);
    }
    let _ = write!(out, " · resumed {}", model.resumed);
    if model.restarts > 0 {
        let _ = write!(out, " · restarts {}", model.restarts);
    }
    if model.parse_errors > 0 {
        let _ = write!(
            out,
            " · {}",
            sgr(ansi, "31", &format!("{} bad lines", model.parse_errors))
        );
    }
    out.push('\n');

    if let CampaignState::Failed { msg } = &model.state {
        let _ = writeln!(out, "{} {}", sgr(ansi, "1;31", "campaign failed:"), msg);
    }
    out
}

/// One-line status for `--no-tty` mode and log files: stable
/// `key=value` fields, no ANSI, no cursor tricks.
pub fn status_line(model: &CampaignModel, rates: &RateTracker) -> String {
    let mut out = format!(
        "watch state={} done={}/{} cached={}",
        model.state.tag(),
        model.done(),
        model.total_cells,
        model.cache_hits,
    );
    if let Some(ema) = rates.cells_per_sec() {
        let _ = write!(out, " cells_per_sec={ema:.1}");
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_fleet::events::Event;
    use griffin_sweep::fingerprint::Fingerprint;

    fn model() -> CampaignModel {
        let mut m = CampaignModel::new();
        m.apply(&Event::CampaignStart {
            campaign: "render-me".into(),
            spec_fp: Fingerprint(3, 4),
            cells: 10,
            resumed: 2,
            scenario: None,
        });
        m.apply_line(r#"{"cached":true,"cell":4,"ev":"cell_done","fp":"00000000000000050000000000000006","metrics":{"area_mm2":1,"cycles":1,"dense_cycles":1,"power_mw":1,"speedup":1,"tops_per_mm2":1,"tops_per_w":1}}"#);
        assert_eq!(m.parse_errors, 0);
        m
    }

    #[test]
    fn dashboard_mentions_every_section_without_ansi() {
        let mut m = model();
        let frame = dashboard(&m, &RateTracker::new(1000.0), 80, false);
        assert!(frame.contains("render-me"));
        assert!(frame.contains("running"));
        assert!(
            frame.contains("cells [") && frame.contains("3/10"),
            "{frame}"
        );
        assert!(frame.contains("cache 1 hit / 1 events (100%)"), "{frame}");
        assert!(frame.contains("resumed 2"), "{frame}");
        assert!(!frame.contains('\x1b'), "ansi=false strips escapes");
        m.apply(&Event::CampaignFailed {
            msg: "went silent".into(),
        });
        let frame = dashboard(&m, &RateTracker::new(1000.0), 80, false);
        assert!(frame.contains("campaign failed: went silent"), "{frame}");
    }

    #[test]
    fn dashboard_with_ansi_brackets_styles_correctly() {
        let frame = dashboard(&model(), &RateTracker::new(1000.0), 80, true);
        assert!(frame.contains("\x1b[1mgriffin fleet watch\x1b[0m"));
        assert_eq!(
            frame.matches("\x1b[").count() % 2,
            0,
            "every SGR open has its reset"
        );
    }

    #[test]
    fn status_line_is_single_line_and_greppable() {
        let mut r = RateTracker::new(1000.0);
        r.observe(0, 0);
        r.observe(1000, 3);
        let line = status_line(&model(), &r);
        assert!(!line.contains('\n'));
        assert!(line.contains("state=running"));
        assert!(line.contains("done=3/10"), "resumed cells count: {line}");
        assert!(line.contains("cached=1"), "{line}");
        assert!(line.contains("cells_per_sec=3.0"));
    }

    /// The dashboard and status line of a legacy multi-host stream
    /// (host-stamped shard lines, `host_lost`, `host_retired`) are the
    /// ones of the same stream without those lines: no host or shard
    /// line, tag or field.
    #[test]
    fn legacy_host_lines_leave_dashboard_and_status_line_unchanged() {
        let plain = model();
        let mut hosted = model();
        for line in [
            r#"{"host":"h1","attempt":0,"ev":"shard_failed","msg":"went silent","shard":1}"#,
            r#"{"ev":"host_lost","host":"h1","shards":1}"#,
            r#"{"ev":"host_retired","host":"h0"}"#,
        ] {
            hosted.apply_line(line);
        }
        assert_eq!(hosted.parse_errors, 0);

        let mut r = RateTracker::new(1000.0);
        r.observe(0, 0);
        r.observe(1000, 3);
        for ansi in [false, true] {
            let frame = dashboard(&hosted, &r, 80, ansi);
            assert!(!frame.contains("host"), "{frame}");
            assert!(!frame.contains("shard"), "{frame}");
            assert_eq!(frame, dashboard(&plain, &r, 80, ansi));
        }
        let line = status_line(&hosted, &r);
        assert!(!line.contains("hosts="), "{line}");
        assert_eq!(line, status_line(&plain, &r));
    }

    #[test]
    fn durations_format_compactly() {
        assert_eq!(fmt_duration_ms(850), "850ms");
        assert_eq!(fmt_duration_ms(4230), "4.2s");
        assert_eq!(fmt_duration_ms(184_000), "3m04s");
    }
}
