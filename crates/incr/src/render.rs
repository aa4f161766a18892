//! Shared renderers for per-site result sets.
//!
//! Three consumers print the same `MOD`/`DMOD`/`USE` report: the CLI's
//! batch `analyze`, its incremental `analyze --edits`, and the analysis
//! server's `query` responses (`modref-serve`). Report formatting is part
//! of the machine-readable contract — scripts and the protocol soak suite
//! compare output byte for byte — so there is exactly one renderer, here,
//! and every consumer goes through it. [`SiteSets`] collects the three
//! set families in call-site index order from either a batch
//! [`Summary`](modref_core::Summary) or a live [`IncrementalEngine`];
//! [`SiteSets::conservative`] is the sound widened fallback a degraded
//! request reports (the same shape the engine's own degradation path
//! uses, so "exact ⊆ reported" holds everywhere).
//!
//! The whole-report renderers ([`render_json`], [`render_json_site`],
//! [`render_text`]) print every set through a private name table, built
//! once per report: each variable's rendered name (quoted and escaped for
//! JSON, raw for text) and its rank in the order the report prints sets
//! in. A set is then written by marking its members' ranks in a
//! rank-space bit buffer and walking the marks in order, so a report
//! costs O(V log V) once plus O(|set| + V/64) per set, for V variables,
//! with no per-name string and no string comparison. The contract is
//! the one the per-set sort kept before: the same bytes, JSON arrays in
//! the byte order of the quoted, escaped names, text sets in the byte
//! order of the raw names (the two differ: `"a!"` sorts before `"a"`,
//! `a` before `a!`). The single-answer renderers
//! ([`render_json_site_answer`], [`render_json_proc`]) print one or two
//! sets per call and keep the per-set sort, which costs them less than a
//! table would. The differential test below holds the table renderers
//! and [`render_json_site_answer`] to the bytes of the old per-set sort.

use std::fmt::Write as _;
use std::ops::Range;

use modref_bitset::{BitSet, EffectSet};
use modref_ir::{CallSiteId, Program, VarId};
use modref_trace::{escape_json, escape_json_into};

use crate::engine::IncrementalEngineIn;
#[cfg(test)]
use crate::engine::IncrementalEngine;

/// The three per-site set families every analyze-style report prints,
/// collected in call-site index order so the batch
/// [`Summary`](modref_core::Summary) and the incremental engine can feed
/// the same renderers.
#[derive(Debug, Clone)]
pub struct SiteSets {
    /// Final alias-factored `MOD` per call site.
    pub mods: Vec<BitSet>,
    /// Final alias-factored `USE` per call site.
    pub uses: Vec<BitSet>,
    /// Direct (pre-alias) `DMOD` per call site.
    pub dmods: Vec<BitSet>,
}

impl SiteSets {
    /// Collects the sets from a batch analysis summary.
    pub fn from_summary(program: &Program, summary: &modref_core::Summary) -> Self {
        SiteSets {
            mods: program.sites().map(|s| summary.mod_site(s).clone()).collect(),
            uses: program.sites().map(|s| summary.use_site(s).clone()).collect(),
            dmods: program
                .sites()
                .map(|s| summary.dmod_site(s).clone())
                .collect(),
        }
    }

    /// Collects the sets from a live incremental engine.
    pub fn from_engine<S: EffectSet>(engine: &IncrementalEngineIn<S>) -> Self {
        let program = engine.program();
        SiteSets {
            mods: program
                .sites()
                .map(|s| engine.mod_site(s).to_dense())
                .collect(),
            uses: program
                .sites()
                .map(|s| engine.use_site(s).to_dense())
                .collect(),
            dmods: program
                .sites()
                .map(|s| engine.dmod_site(s).to_dense())
                .collect(),
        }
    }

    /// The sound conservative fallback: every set at a site widened to the
    /// caller's visible set — the same per-site shape the engine's
    /// degradation path reports, so anything observable at run time is
    /// inside these sets regardless of what a cut-short analysis knew.
    pub fn conservative(program: &Program) -> Self {
        let visible = program.visible_sets();
        let per_site: Vec<BitSet> = program
            .sites()
            .map(|s| visible[program.site(s).caller().index()].clone())
            .collect();
        SiteSets {
            mods: per_site.clone(),
            uses: per_site.clone(),
            dmods: per_site,
        }
    }
}

/// Renders a variable set as the report's sorted `{a, b}` form (`∅` when
/// empty).
pub fn set_names(program: &Program, set: &BitSet) -> String {
    let mut v: Vec<&str> = set
        .iter()
        .map(|i| program.var_name(VarId::new(i)))
        .collect();
    v.sort_unstable();
    if v.is_empty() {
        "∅".to_owned()
    } else {
        format!("{{{}}}", v.join(", "))
    }
}

/// The per-site text report shared by plain and `--edits` analyses (and
/// the server's text-mode clients). One line group per call site.
pub fn render_text(program: &Program, sets: &SiteSets, no_use: bool, no_alias: bool) -> String {
    let mut table = NameTable::new(program, &TEXT);
    let mut out = String::with_capacity(table.report_capacity(sets, 0..program.num_sites()));
    for site in program.sites() {
        let info = program.site(site);
        let i = site.index();
        let _ = writeln!(
            out,
            "site {site}: call {} (in {})",
            program.proc_name(info.callee()),
            program.proc_name(info.caller())
        );
        out.push_str("  MOD  = ");
        table.write_set(&mut out, &sets.mods[i]);
        if !no_alias {
            out.push_str("\n  DMOD = ");
            table.write_set(&mut out, &sets.dmods[i]);
        }
        if !no_use {
            out.push_str("\n  USE  = ");
            table.write_set(&mut out, &sets.uses[i]);
        }
        out.push('\n');
    }
    out
}

/// Hand-rolled JSON report over all sites (identifiers are
/// `[A-Za-z0-9_]`, but escape anyway). Ends with a newline; `analyze
/// --json` prints this verbatim and the server embeds it verbatim, which
/// is what makes query responses byte-comparable to batch output.
pub fn render_json(program: &Program, sets: &SiteSets) -> String {
    render_json_sites(program, sets, 0..program.num_sites())
}

/// [`render_json`] restricted to a single call site (`{"sites":[…one…]}`;
/// `{"sites":[]}` when the program has no such site).
pub fn render_json_site(program: &Program, sets: &SiteSets, site: CallSiteId) -> String {
    let i = site.index();
    render_json_sites(program, sets, i..i.saturating_add(1).min(program.num_sites()))
}

/// The single-site object rendered directly from one answer's sets —
/// byte-identical to [`render_json_site`] over a full [`SiteSets`] with
/// the same values, which is what lets the demand-driven query path and
/// the exhaustive path share one output contract.
pub fn render_json_site_answer(
    program: &Program,
    site: CallSiteId,
    mods: &BitSet,
    uses: &BitSet,
    dmod: &BitSet,
) -> String {
    let esc = escape_json;
    let info = program.site(site);
    format!(
        "{{\"sites\":[{{\"id\":{},\"caller\":\"{}\",\"callee\":\"{}\",\"mod\":{},\"use\":{},\"dmod\":{}}}]}}\n",
        site.index(),
        esc(program.proc_name(info.caller())),
        esc(program.proc_name(info.callee())),
        set_names_json(program, mods),
        set_names_json(program, uses),
        set_names_json(program, dmod),
    )
}

/// `{"proc":…,"gmod":[…],"guse":[…]}` with the same sorted-quoted-name
/// arrays the site report uses. One renderer for the CLI's `--query
/// proc:NAME` and the server's `query proc` responses.
pub fn render_json_proc(program: &Program, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
    format!(
        "{{\"proc\":\"{}\",\"gmod\":{},\"guse\":{}}}\n",
        escape_json(name),
        set_names_json(program, gmod),
        set_names_json(program, guse)
    )
}

/// The sorted `["a","b"]` JSON array of one set, for the renderers that
/// print one or two sets per call: ranking every variable of the program
/// would cost them more than sorting their few names.
fn set_names_json(program: &Program, set: &BitSet) -> String {
    let mut parts: Vec<String> = set
        .iter()
        .map(|i| format!("\"{}\"", escape_json(program.var_name(VarId::new(i)))))
        .collect();
    parts.sort();
    format!("[{}]", parts.join(","))
}

fn render_json_sites(program: &Program, sets: &SiteSets, sites: Range<usize>) -> String {
    let mut table = NameTable::new(program, &JSON);
    let mut out = String::with_capacity(table.report_capacity(sets, sites.clone()));
    out.push_str("{\"sites\":[");
    for i in sites.clone() {
        if i > sites.start {
            out.push(',');
        }
        let info = program.site(CallSiteId::new(i));
        let _ = write!(out, "{{\"id\":{i},\"caller\":\"");
        escape_json_into(&mut out, program.proc_name(info.caller()));
        out.push_str("\",\"callee\":\"");
        escape_json_into(&mut out, program.proc_name(info.callee()));
        out.push_str("\",\"mod\":");
        table.write_set(&mut out, &sets.mods[i]);
        out.push_str(",\"use\":");
        table.write_set(&mut out, &sets.uses[i]);
        out.push_str(",\"dmod\":");
        table.write_set(&mut out, &sets.dmods[i]);
        out.push('}');
    }
    out.push_str("]}\n");
    out
}

/// How a [`NameTable`] renders one name and one set.
struct SetForm {
    /// Renders a variable's name as it appears inside a set.
    name: fn(&mut String, &str),
    open: &'static str,
    sep: &'static str,
    close: &'static str,
    empty: &'static str,
}

/// `["a","b"]`: quoted, escaped names, sorted as quoted strings.
const JSON: SetForm = SetForm {
    name: |out, name| {
        out.push('"');
        escape_json_into(out, name);
        out.push('"');
    },
    open: "[",
    sep: ",",
    close: "]",
    empty: "[]",
};

/// `{a, b}`: raw names, sorted raw; `∅` when empty.
const TEXT: SetForm = SetForm {
    name: |out, name| out.push_str(name),
    open: "{",
    sep: ", ",
    close: "}",
    empty: "∅",
};

/// Every variable's rendered name, ranked once per report in the order
/// the report prints sets in: the byte order of the rendered name (for
/// JSON, of the quoted, escaped string, which is not the raw names'
/// order: `"a!"` sorts before `"a"`). Building it costs O(V log V) for V
/// variables; each set then renders in O(|set| + V/64), with no
/// allocation and no string comparison, by marking its members' ranks in
/// a rank-space bit buffer and walking that buffer's set bits in order.
struct NameTable {
    form: &'static SetForm,
    /// `rank[v]`: variable `v`'s position in the report's order. Ranks
    /// are distinct; variables with equal names take adjacent ranks in
    /// either order, which renders the same bytes.
    rank: Vec<u32>,
    /// Every rendered name, concatenated in rank order.
    names: String,
    /// Rank `r`'s name is `names[bounds[r]..bounds[r + 1]]`.
    bounds: Vec<usize>,
    /// Rank-space membership of the set being written; all zero between
    /// sets.
    marks: Vec<u64>,
}

impl NameTable {
    fn new(program: &Program, form: &'static SetForm) -> Self {
        let n = program.num_vars();
        let mut rendered = String::new();
        let mut spans = Vec::with_capacity(n);
        for v in program.vars() {
            let start = rendered.len();
            (form.name)(&mut rendered, program.var_name(v));
            spans.push(start..rendered.len());
        }
        let mut order: Vec<usize> = (0..n).collect();
        order
            .sort_unstable_by(|&a, &b| rendered[spans[a].clone()].cmp(&rendered[spans[b].clone()]));
        let mut rank = vec![0u32; n];
        let mut names = String::with_capacity(rendered.len());
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        for (r, &v) in order.iter().enumerate() {
            rank[v] = u32::try_from(r).expect("variable count fits in u32");
            names.push_str(&rendered[spans[v].clone()]);
            bounds.push(names.len());
        }
        NameTable {
            form,
            rank,
            names,
            bounds,
            marks: vec![0; n.div_ceil(64)],
        }
    }

    /// Appends `set` in the table's form and order.
    fn write_set(&mut self, out: &mut String, set: &BitSet) {
        for v in set.iter() {
            let r = self.rank[v] as usize;
            self.marks[r / 64] |= 1 << (r % 64);
        }
        let mut lead = self.form.open;
        let mut any = false;
        for (w, word) in self.marks.iter_mut().enumerate() {
            let mut bits = std::mem::take(word);
            while bits != 0 {
                let r = w * 64 + bits.trailing_zeros() as usize;
                bits &= bits - 1;
                out.push_str(lead);
                out.push_str(&self.names[self.bounds[r]..self.bounds[r + 1]]);
                lead = self.form.sep;
                any = true;
            }
        }
        out.push_str(if any {
            self.form.close
        } else {
            self.form.empty
        });
    }

    /// An estimate of the length of a report over `sites` (its sets at
    /// the mean name length, plus a per-site allowance for the fixed
    /// text), so the output is allocated once in the usual case.
    fn report_capacity(&self, sets: &SiteSets, sites: Range<usize>) -> usize {
        let per_name = self.names.len().div_ceil(self.rank.len().max(1)) + self.form.sep.len();
        let site_count = sites.len();
        let members: usize = sites
            .map(|i| sets.mods[i].len() + sets.uses[i].len() + sets.dmods[i].len())
            .sum();
        members * per_name + site_count * 96
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_core::Analyzer;
    use modref_ir::{Expr, ProgramBuilder};

    fn sample() -> Program {
        let mut b = ProgramBuilder::new();
        let g = b.global("g");
        let p = b.proc_("p", &["x"]);
        b.assign(p, b.formal(p, 0), Expr::constant(1));
        let main = b.main();
        b.call(main, p, &[g]);
        b.finish().expect("valid")
    }

    #[test]
    fn engine_and_summary_renders_agree() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let engine = IncrementalEngine::new(program.clone());
        let from_summary = SiteSets::from_summary(&program, &summary);
        let from_engine = SiteSets::from_engine(&engine);
        assert_eq!(
            render_json(&program, &from_summary),
            render_json(&program, &from_engine)
        );
        assert_eq!(
            render_text(&program, &from_summary, false, false),
            render_text(&program, &from_engine, false, false)
        );
    }

    #[test]
    fn single_site_filter_matches_full_report_slice() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let sets = SiteSets::from_summary(&program, &summary);
        let site = program.sites().next().expect("one site");
        let one = render_json_site(&program, &sets, site);
        let all = render_json(&program, &sets);
        // The lone site's object appears verbatim inside the full report.
        let body = one
            .trim_end()
            .strip_prefix("{\"sites\":[")
            .and_then(|s| s.strip_suffix("]}"))
            .expect("shape");
        assert!(all.contains(body), "{all} should contain {body}");
    }

    /// The per-set `format!`/sort/`join` renderers the name table
    /// replaced, kept verbatim as the reference it must match.
    mod oracle {
        use super::*;

        fn set_text(program: &Program, set: &BitSet) -> String {
            let mut v: Vec<&str> = set
                .iter()
                .map(|i| program.var_name(VarId::new(i)))
                .collect();
            v.sort_unstable();
            if v.is_empty() {
                "∅".to_owned()
            } else {
                format!("{{{}}}", v.join(", "))
            }
        }

        fn set_json(program: &Program, set: &BitSet) -> String {
            let mut parts: Vec<String> = set
                .iter()
                .map(|i| format!("\"{}\"", escape_json(program.var_name(VarId::new(i)))))
                .collect();
            parts.sort();
            format!("[{}]", parts.join(","))
        }

        pub fn text(program: &Program, sets: &SiteSets, no_use: bool, no_alias: bool) -> String {
            let mut out = String::new();
            for site in program.sites() {
                let info = program.site(site);
                let _ = writeln!(
                    out,
                    "site {site}: call {} (in {})",
                    program.proc_name(info.callee()),
                    program.proc_name(info.caller())
                );
                let _ = writeln!(
                    out,
                    "  MOD  = {}",
                    set_text(program, &sets.mods[site.index()])
                );
                if !no_alias {
                    let _ = writeln!(
                        out,
                        "  DMOD = {}",
                        set_text(program, &sets.dmods[site.index()])
                    );
                }
                if !no_use {
                    let _ = writeln!(
                        out,
                        "  USE  = {}",
                        set_text(program, &sets.uses[site.index()])
                    );
                }
            }
            out
        }

        pub fn json(program: &Program, sets: &SiteSets, only: Option<CallSiteId>) -> String {
            let esc = escape_json;
            let names = |set: &BitSet| set_json(program, set);
            let mut out = String::from("{\"sites\":[");
            let mut emitted = 0usize;
            for site in program.sites() {
                if only.is_some_and(|s| s != site) {
                    continue;
                }
                if emitted > 0 {
                    out.push(',');
                }
                emitted += 1;
                let info = program.site(site);
                let _ = write!(
                    out,
                    "{{\"id\":{},\"caller\":\"{}\",\"callee\":\"{}\",\"mod\":{},\"use\":{},\"dmod\":{}}}",
                    site.index(),
                    esc(program.proc_name(info.caller())),
                    esc(program.proc_name(info.callee())),
                    names(&sets.mods[site.index()]),
                    names(&sets.uses[site.index()]),
                    names(&sets.dmods[site.index()]),
                );
            }
            out.push_str("]}\n");
            out
        }
    }

    /// Every whole-report renderer, and the single-site answer renderer,
    /// byte-identical to the oracle on `sets`.
    fn assert_matches_oracle(program: &Program, sets: &SiteSets, ctx: &str) {
        assert_eq!(
            render_json(program, sets),
            oracle::json(program, sets, None),
            "{ctx}: json"
        );
        for site in program.sites() {
            let i = site.index();
            let want = oracle::json(program, sets, Some(site));
            assert_eq!(
                render_json_site(program, sets, site),
                want,
                "{ctx}: site {i}"
            );
            assert_eq!(
                render_json_site_answer(
                    program,
                    site,
                    &sets.mods[i],
                    &sets.uses[i],
                    &sets.dmods[i]
                ),
                want,
                "{ctx}: site {i} answer"
            );
        }
        let past_end = CallSiteId::new(program.num_sites());
        assert_eq!(
            render_json_site(program, sets, past_end),
            oracle::json(program, sets, Some(past_end)),
            "{ctx}: no such site"
        );
        for (no_use, no_alias) in [(false, false), (true, false), (false, true), (true, true)] {
            assert_eq!(
                render_text(program, sets, no_use, no_alias),
                oracle::text(program, sets, no_use, no_alias),
                "{ctx}: text no_use={no_use} no_alias={no_alias}"
            );
        }
    }

    /// Exact and conservatively widened sets of `program`, both oracle-checked.
    fn assert_program_matches_oracle(program: &Program, ctx: &str) {
        let summary = Analyzer::new().analyze(program);
        assert_matches_oracle(program, &SiteSets::from_summary(program, &summary), ctx);
        assert_matches_oracle(
            program,
            &SiteSets::conservative(program),
            &format!("{ctx} wide"),
        );
    }

    #[test]
    fn name_table_matches_per_set_sort_on_generated_programs() {
        use modref_progen::{generate, GenConfig};
        for seed in 0..4 {
            for (family, config) in [
                ("fortran_like", GenConfig::fortran_like(30)),
                ("pascal_like", GenConfig::pascal_like(30, 3)),
            ] {
                let program = generate(&config, seed);
                assert!(
                    program.num_vars() > 64,
                    "{family}: sets must span several words"
                );
                assert_program_matches_oracle(&program, &format!("{family} seed {seed}"));
            }
        }
    }

    /// Names that need escaping, and whose quoted order differs from their
    /// raw order (`"a!"` < `"a"` but `a` < `a!`), plus a local that shares a
    /// global's name.
    #[test]
    fn name_table_matches_per_set_sort_on_escaped_names() {
        let mut b = ProgramBuilder::new();
        let names = ["a", "a!", "a b", "a\"x", "a\\", "a\tb", "é", "b"];
        let globals: Vec<VarId> = names.iter().map(|n| b.global(n)).collect();
        let p = b.proc_("p\"q", &["x"]);
        let shadow = b.local(p, "a");
        b.assign(p, shadow, Expr::load(b.formal(p, 0)));
        for &g in &globals {
            b.assign(p, g, Expr::load(shadow));
        }
        let main = b.main();
        b.call(main, p, &[globals[2]]);
        b.call(main, p, &[globals[6]]);
        let program = b.finish().expect("valid");
        assert_program_matches_oracle(&program, "escaped names");

        let all = BitSet::full(program.num_vars());
        let sets = SiteSets {
            mods: vec![all.clone(); program.num_sites()],
            uses: vec![all.clone(); program.num_sites()],
            dmods: vec![all; program.num_sites()],
        };
        assert_matches_oracle(&program, &sets, "full sets");
        let json = render_json(&program, &sets);
        let quoted = r#""mod":["a b","a!","a","a","a\"x","a\\","a\tb","b","x","é"]"#;
        assert!(json.contains(quoted), "quoted byte order: {json}");
        let text = render_text(&program, &sets, false, false);
        let raw = "MOD  = {a, a, a\tb, a b, a!, a\"x, a\\, b, x, é}";
        assert!(text.contains(raw), "raw byte order: {text}");
    }

    #[test]
    fn empty_sets_render_as_empty_array_and_empty_set_sign() {
        let program = sample();
        let none = BitSet::new(program.num_vars());
        let sets = SiteSets {
            mods: vec![none.clone(); program.num_sites()],
            uses: vec![none.clone(); program.num_sites()],
            dmods: vec![none; program.num_sites()],
        };
        assert_matches_oracle(&program, &sets, "empty sets");
        assert!(render_json(&program, &sets).contains(r#""mod":[],"use":[],"dmod":[]"#));
        assert!(render_text(&program, &sets, false, false)
            .contains("  MOD  = ∅\n  DMOD = ∅\n  USE  = ∅\n"));
    }

    #[test]
    fn conservative_sets_contain_exact_sets() {
        let program = sample();
        let summary = Analyzer::new().analyze(&program);
        let exact = SiteSets::from_summary(&program, &summary);
        let wide = SiteSets::conservative(&program);
        for s in program.sites() {
            let i = s.index();
            assert!(exact.mods[i].is_subset(&wide.mods[i]));
            assert!(exact.uses[i].is_subset(&wide.uses[i]));
            assert!(exact.dmods[i].is_subset(&wide.dmods[i]));
        }
    }
}
