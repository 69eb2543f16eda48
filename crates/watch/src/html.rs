//! Post-hoc HTML report: one self-contained static page.
//!
//! The page embeds everything inline — CSS in a `<style>` block, a few
//! lines of script, the JSON summary in a data block — and references
//! no external resource of any kind, so it renders from a `file:` open
//! on an air-gapped machine and can be archived next to the run
//! directory it describes. The emitter is a pure `model → String`
//! function; writing the file is the caller's business.

use crate::model::{CampaignModel, CampaignState};
use crate::render::fmt_duration_ms;
use std::fmt::Write as _;

/// Escapes text for HTML body and attribute contexts.
fn esc(s: &str) -> String {
    let mut out = String::with_capacity(s.len());
    for c in s.chars() {
        match c {
            '&' => out.push_str("&amp;"),
            '<' => out.push_str("&lt;"),
            '>' => out.push_str("&gt;"),
            '"' => out.push_str("&quot;"),
            '\'' => out.push_str("&#39;"),
            _ => out.push(c),
        }
    }
    out
}

/// Renders the self-contained campaign report page.
pub fn report_html(model: &CampaignModel) -> String {
    let state_class = model.state.tag();
    let pct = model.progress() * 100.0;
    let mut b = String::with_capacity(8192);
    b.push_str("<!DOCTYPE html>\n<html lang=\"en\">\n<head>\n<meta charset=\"utf-8\">\n");
    let _ = writeln!(
        b,
        "<title>griffin campaign report · {}</title>",
        esc(&model.campaign)
    );
    b.push_str(concat!(
        "<style>\n",
        "body{font:14px/1.5 system-ui,sans-serif;margin:2rem auto;max-width:60rem;",
        "padding:0 1rem;color:#1c2330;background:#fafbfc}\n",
        "h1{font-size:1.3rem}h2{font-size:1.05rem;margin-top:1.6rem}\n",
        "table{border-collapse:collapse;width:100%;margin:.5rem 0}\n",
        "th,td{border:1px solid #d4dae3;padding:.3rem .6rem;text-align:left;",
        "font-variant-numeric:tabular-nums}\n",
        "th{background:#eef1f5}\n",
        ".bar{background:#e3e7ee;border-radius:4px;height:1rem;overflow:hidden}\n",
        ".bar span{display:block;height:100%;background:#3a7d44}\n",
        ".state{padding:.1rem .5rem;border-radius:4px;font-weight:600}\n",
        ".state.done{background:#d8f0dc;color:#205c2a}\n",
        ".state.failed{background:#f7d9d9;color:#8a1f1f}\n",
        ".state.running,.state.waiting{background:#dde7f7;color:#1f3f77}\n",
        ".fail{color:#8a1f1f}\n",
        "pre{background:#eef1f5;padding:.8rem;border-radius:4px;overflow:auto;",
        "display:none}\n",
        "pre.open{display:block}\n",
        "</style>\n</head>\n<body>\n"
    ));
    let _ = writeln!(
        b,
        "<h1>griffin campaign report · {} <span class=\"state {state_class}\">{}</span></h1>",
        esc(&model.campaign),
        model.state.tag()
    );
    if let Some(fp) = model.spec_fp {
        let _ = writeln!(b, "<p>grid fingerprint <code>{fp}</code></p>");
    }
    if let Some(s) = &model.scenario {
        let _ = writeln!(
            b,
            "<p>scenario <code>{}</code> (<code>{}</code>)</p>",
            esc(&s.file),
            s.fp
        );
    }

    // Progress.
    let _ = writeln!(
        b,
        "<div class=\"bar\"><span style=\"width:{pct:.1}%\"></span></div>\n\
         <p>{} of {} cells ({pct:.1}%) · elapsed {}</p>",
        model.done(),
        model.total_cells,
        fmt_duration_ms(model.elapsed_ms())
    );

    // Campaign counters.
    b.push_str("<h2>Campaign</h2>\n<table>\n<tr><th>metric</th><th>value</th></tr>\n");
    let mut row = |k: &str, v: String| {
        let _ = writeln!(b, "<tr><td>{k}</td><td>{v}</td></tr>");
    };
    row("resumed from cache", model.resumed.to_string());
    row(
        "stream restarts (resume appends)",
        model.restarts.to_string(),
    );
    row("cell_done events", model.cell_events.to_string());
    row("cache hits", model.cache_hits.to_string());
    if let Some(r) = model.cache_hit_ratio() {
        row("cache-hit ratio", format!("{:.1}%", r * 100.0));
    }
    if let Some(cps) = model.cumulative_cells_per_sec() {
        row("cells/sec (cumulative)", format!("{cps:.2}"));
    }
    if model.parse_errors > 0 {
        row("unparseable stream lines", model.parse_errors.to_string());
    }
    b.push_str("</table>\n");

    // Failure archaeology.
    b.push_str("<h2>Failure</h2>\n");
    match &model.state {
        CampaignState::Failed { msg } => {
            let _ = writeln!(
                b,
                "<p class=\"fail\"><b>campaign failed:</b> {}</p>",
                esc(msg)
            );
        }
        _ => b.push_str("<p>none</p>\n"),
    }

    // Machine-readable summary, embedded for archaeology and toggled
    // open by the only script on the page.
    b.push_str("<h2>Summary JSON</h2>\n<button id=\"t\">show</button>\n");
    let json = model.summary().write();
    let _ = writeln!(b, "<pre id=\"j\">{}</pre>", esc(&json));
    b.push_str(concat!(
        "<script>\n",
        "document.getElementById('t').addEventListener('click',function(){\n",
        "var p=document.getElementById('j');p.classList.toggle('open');\n",
        "this.textContent=p.classList.contains('open')?'hide':'show';});\n",
        "</script>\n</body>\n</html>\n"
    ));
    b
}

#[cfg(test)]
mod tests {
    use super::*;
    use griffin_fleet::events::Event;
    use griffin_sweep::fingerprint::Fingerprint;

    #[test]
    fn page_is_self_contained_and_escaped() {
        let mut m = CampaignModel::new();
        m.apply(&Event::CampaignStart {
            campaign: "a<b>&\"camp\"".into(),
            spec_fp: Fingerprint(5, 6),
            cells: 3,
            resumed: 0,
            scenario: None,
        });
        m.apply(&Event::CampaignFailed {
            msg: "exit <code> & chaos".into(),
        });
        let page = report_html(&m);
        assert!(
            !page.contains("http"),
            "self-contained: no external references at all"
        );
        assert!(page.contains("a&lt;b&gt;&amp;&quot;camp&quot;"));
        assert!(page.contains("exit &lt;code&gt; &amp; chaos"));
        assert!(page.contains("campaign failed:"));
        assert!(page.starts_with("<!DOCTYPE html>"));
        assert!(page.ends_with("</html>\n"));
    }

    #[test]
    fn page_reports_progress_and_counters() {
        let mut m = CampaignModel::new();
        m.apply(&Event::CampaignStart {
            campaign: "ok".into(),
            spec_fp: Fingerprint(1, 2),
            cells: 2,
            resumed: 1,
            scenario: None,
        });
        m.apply(&Event::CampaignDone {
            cells: 2,
            elapsed_ms: 1500,
        });
        let page = report_html(&m);
        assert!(page.contains("1 of 2 cells (50.0%)"));
        assert!(page.contains("elapsed 1.5s"));
        assert!(page.contains("griffin-watch-summary/2"));
        assert!(page.contains("<p>none</p>"), "no failure section entry");
    }
}
