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
//! Every set is printed by one writer, a private name table: each
//! variable's rendered name (quoted and escaped for JSON, raw for text)
//! and its rank in the order sets are printed in. A set is written by
//! marking its members' ranks in a rank-space bit buffer and walking the
//! marks in order, with no per-name string and no string comparison. The
//! contract is the one the per-set sort kept before: the same bytes, JSON
//! arrays in the byte order of the quoted, escaped names, text sets in
//! the byte order of the raw names (the two differ: `"a!"` sorts before
//! `"a"`, `a` before `a!`). The table comes in three lifetimes:
//!
//! - **Per report.** The whole-report renderers ([`render_json`],
//!   [`render_json_site`], [`render_text`]) rank every variable once,
//!   O(V log V) for V variables, then write each set in O(|set| + V/64).
//! - **Per session.** A [`SessionRenderer`] keeps the JSON table across
//!   the single answers of one server session and rebuilds it only when
//!   the program's variable table changes, so an answer costs
//!   O(|answer| + V/64).
//! - **Per answer.** The one-shot single-answer renderers
//!   ([`render_json_site_answer`], [`render_json_proc`], [`set_names`])
//!   rank only the answer's k members, O(k log k), as the sort they
//!   replaced did.
//!
//! The differential tests below hold all three to the bytes of the old
//! per-set sort.

use std::fmt::Write as _;
use std::ops::Range;
use std::sync::Arc;

use modref_bitset::{BitSet, EffectSet};
use modref_ir::{CallSiteId, Program, VarId, VarInfo};
use modref_trace::escape_json_into;

#[cfg(test)]
use crate::engine::IncrementalEngine;
use crate::engine::IncrementalEngineIn;

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
            mods: program
                .sites()
                .map(|s| summary.mod_site(s).clone())
                .collect(),
            uses: program
                .sites()
                .map(|s| summary.use_site(s).clone())
                .collect(),
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
    let mut table = NameTable::over(program, &TEXT, &[set]);
    let mut out = String::with_capacity(table.capacity(set.len(), 0));
    table.write_set(&mut out, set);
    out
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
    render_json_sites(
        program,
        sets,
        i..i.saturating_add(1).min(program.num_sites()),
    )
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
    let mut table = NameTable::over(program, &JSON, &[mods, uses, dmod]);
    site_answer(&mut table, program, site, [mods, uses, dmod])
}

/// `{"proc":…,"gmod":[…],"guse":[…]}` with the same sorted-quoted-name
/// arrays the site report uses. One renderer for the CLI's `--query
/// proc:NAME` and the server's `query proc` responses.
pub fn render_json_proc(program: &Program, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
    let mut table = NameTable::over(program, &JSON, &[gmod, guse]);
    proc_answer(&mut table, name, gmod, guse)
}

/// The single-answer renderers of one server session: the bytes of
/// [`render_json_site_answer`] and [`render_json_proc`], written through
/// a JSON name table that lives as long as the session.
///
/// The table is keyed by the program's variable table itself
/// ([`Program::var_table`]), held by a clone of its `Arc` so a freed
/// table's address cannot come back as a new one. Edits that keep the
/// variable universe share that table and keep the names; the ones that
/// change it replace it, and the next answer rebuilds the names. The key
/// never looks at what happened to the program, so journal replay,
/// eviction and resurrection, crash recovery and degraded applies need
/// no hook here.
#[derive(Debug, Default)]
pub struct SessionRenderer {
    /// The variable table the names were built from, and the names.
    table: Option<(Arc<Vec<VarInfo>>, NameTable)>,
}

impl SessionRenderer {
    /// A renderer with no table yet; the first answer builds it.
    pub fn new() -> Self {
        Self::default()
    }

    /// [`render_json_site_answer`] through the session's table.
    pub fn site_answer(
        &mut self,
        program: &Program,
        site: CallSiteId,
        mods: &BitSet,
        uses: &BitSet,
        dmod: &BitSet,
    ) -> String {
        site_answer(self.table(program), program, site, [mods, uses, dmod])
    }

    /// [`render_json_proc`] through the session's table.
    pub fn proc_answer(
        &mut self,
        program: &Program,
        name: &str,
        gmod: &BitSet,
        guse: &BitSet,
    ) -> String {
        proc_answer(self.table(program), name, gmod, guse)
    }

    /// The table for `program`'s variables, rebuilt if the program no
    /// longer shares the variable table it was built from.
    fn table(&mut self, program: &Program) -> &mut NameTable {
        let vars = program.var_table();
        let table = match self.table.take() {
            Some((key, table)) if Arc::ptr_eq(&key, vars) => (key, table),
            _ => (Arc::clone(vars), NameTable::new(program, &JSON)),
        };
        &mut self.table.insert(table).1
    }
}

/// `{"sites":[<site object>]}` and a newline.
fn site_answer(
    table: &mut NameTable,
    program: &Program,
    site: CallSiteId,
    sets: [&BitSet; 3],
) -> String {
    let members = sets.iter().map(|s| s.len()).sum();
    let mut out = String::with_capacity(table.capacity(members, 1));
    out.push_str("{\"sites\":[");
    write_site(table, &mut out, program, site, sets);
    out.push_str("]}\n");
    out
}

/// `{"proc":…,"gmod":[…],"guse":[…]}` and a newline.
fn proc_answer(table: &mut NameTable, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
    let mut out = String::with_capacity(table.capacity(gmod.len() + guse.len(), 1) + name.len());
    out.push_str("{\"proc\":\"");
    escape_json_into(&mut out, name);
    out.push_str("\",\"gmod\":");
    table.write_set(&mut out, gmod);
    out.push_str(",\"guse\":");
    table.write_set(&mut out, guse);
    out.push_str("}\n");
    out
}

fn render_json_sites(program: &Program, sets: &SiteSets, sites: Range<usize>) -> String {
    let mut table = NameTable::new(program, &JSON);
    let mut out = String::with_capacity(table.report_capacity(sets, sites.clone()));
    out.push_str("{\"sites\":[");
    for i in sites.clone() {
        if i > sites.start {
            out.push(',');
        }
        let site_sets = [&sets.mods[i], &sets.uses[i], &sets.dmods[i]];
        write_site(&mut table, &mut out, program, CallSiteId::new(i), site_sets);
    }
    out.push_str("]}\n");
    out
}

/// One site's `{"id":…,"caller":…,"callee":…,"mod":…,"use":…,"dmod":…}`
/// object; `sets` are its `MOD`, `USE` and `DMOD`.
fn write_site(
    table: &mut NameTable,
    out: &mut String,
    program: &Program,
    site: CallSiteId,
    [mods, uses, dmod]: [&BitSet; 3],
) {
    let info = program.site(site);
    let _ = write!(out, "{{\"id\":{},\"caller\":\"", site.index());
    escape_json_into(out, program.proc_name(info.caller()));
    out.push_str("\",\"callee\":\"");
    escape_json_into(out, program.proc_name(info.callee()));
    out.push_str("\",\"mod\":");
    table.write_set(out, mods);
    out.push_str(",\"use\":");
    table.write_set(out, uses);
    out.push_str(",\"dmod\":");
    table.write_set(out, dmod);
    out.push('}');
}

/// How a [`NameTable`] renders one name and one set.
#[derive(Debug)]
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

/// Rendered names of a run of variables, ranked in the order sets are
/// printed in: the byte order of the rendered name (for JSON, of the
/// quoted, escaped string, which is not the raw names' order: `"a!"`
/// sorts before `"a"`). Building it costs O(n log n) for its n
/// variables; each set then renders in O(|set| + n/64), with no
/// allocation and no string comparison, by marking its members' ranks in
/// a rank-space bit buffer and walking that buffer's set bits in order.
///
/// A table holds either every variable of the program, so a variable's
/// slot is its index, or only the given `members`, sorted, so a slot is
/// found by binary search and the table costs only what it holds.
#[derive(Debug)]
struct NameTable {
    form: &'static SetForm,
    /// The variables of a partial table, by slot; `None` for all.
    members: Option<Vec<usize>>,
    /// `rank[slot]`: that variable's position in the printed order.
    /// Ranks are distinct; variables with equal names take adjacent ranks
    /// in either order, which renders the same bytes.
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
    /// A table over every variable of `program`.
    fn new(program: &Program, form: &'static SetForm) -> Self {
        Self::build(program, form, None)
    }

    /// A table over only the members of `sets`.
    fn over(program: &Program, form: &'static SetForm, sets: &[&BitSet]) -> Self {
        let mut members: Vec<usize> = sets.iter().flat_map(|s| s.iter()).collect();
        members.sort_unstable();
        members.dedup();
        Self::build(program, form, Some(members))
    }

    fn build(program: &Program, form: &'static SetForm, members: Option<Vec<usize>>) -> Self {
        let n = members.as_ref().map_or(program.num_vars(), Vec::len);
        let var = |slot: usize| VarId::new(members.as_ref().map_or(slot, |m| m[slot]));
        let mut rendered = String::new();
        let mut spans = Vec::with_capacity(n);
        for slot in 0..n {
            let start = rendered.len();
            (form.name)(&mut rendered, program.var_name(var(slot)));
            spans.push(start..rendered.len());
        }
        let mut order: Vec<usize> = (0..n).collect();
        order
            .sort_unstable_by(|&a, &b| rendered[spans[a].clone()].cmp(&rendered[spans[b].clone()]));
        let mut rank = vec![0u32; n];
        let mut names = String::with_capacity(rendered.len());
        let mut bounds = Vec::with_capacity(n + 1);
        bounds.push(0);
        for (r, &slot) in order.iter().enumerate() {
            rank[slot] = u32::try_from(r).expect("variable count fits in u32");
            names.push_str(&rendered[spans[slot].clone()]);
            bounds.push(names.len());
        }
        NameTable {
            form,
            members,
            rank,
            names,
            bounds,
            marks: vec![0; n.div_ceil(64)],
        }
    }

    /// Appends `set` in the table's form and order. Every member of `set`
    /// must be in the table.
    fn write_set(&mut self, out: &mut String, set: &BitSet) {
        for v in set.iter() {
            let slot = match &self.members {
                None => v,
                Some(members) => members
                    .binary_search(&v)
                    .expect("the table holds every member"),
            };
            let r = self.rank[slot] as usize;
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

    /// An estimate of the length of `sites` site objects holding
    /// `members` set members in all (at the mean name length, plus a
    /// per-site allowance for the fixed text), so the output is allocated
    /// once in the usual case.
    fn capacity(&self, members: usize, sites: usize) -> usize {
        let per_name = self.names.len().div_ceil(self.rank.len().max(1)) + self.form.sep.len();
        members * per_name + sites * 96
    }

    /// [`NameTable::capacity`] of a whole report over `sites`.
    fn report_capacity(&self, sets: &SiteSets, sites: Range<usize>) -> usize {
        let site_count = sites.len();
        let members: usize = sites
            .map(|i| sets.mods[i].len() + sets.uses[i].len() + sets.dmods[i].len())
            .sum();
        self.capacity(members, site_count)
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
        use modref_trace::escape_json;

        pub fn set_text(program: &Program, set: &BitSet) -> String {
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

        pub fn proc_(program: &Program, name: &str, gmod: &BitSet, guse: &BitSet) -> String {
            format!(
                "{{\"proc\":\"{}\",\"gmod\":{},\"guse\":{}}}\n",
                escape_json(name),
                set_json(program, gmod),
                set_json(program, guse)
            )
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

    /// Every whole-report renderer byte-identical to the oracle on `sets`,
    /// and so are the single answers.
    fn assert_matches_oracle(
        session: &mut SessionRenderer,
        program: &Program,
        sets: &SiteSets,
        ctx: &str,
    ) {
        assert_eq!(
            render_json(program, sets),
            oracle::json(program, sets, None),
            "{ctx}: json"
        );
        for site in program.sites() {
            assert_eq!(
                render_json_site(program, sets, site),
                oracle::json(program, sets, Some(site)),
                "{ctx}: site {site}"
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
        assert_answers_match_oracle(session, program, sets, ctx);
    }

    /// Both single-site answer forms (one-shot and through `session`) and
    /// the one-shot text set, byte-identical to the oracle at every site.
    fn assert_answers_match_oracle(
        session: &mut SessionRenderer,
        program: &Program,
        sets: &SiteSets,
        ctx: &str,
    ) {
        for site in program.sites() {
            let i = site.index();
            let want = oracle::json(program, sets, Some(site));
            let (mods, uses, dmod) = (&sets.mods[i], &sets.uses[i], &sets.dmods[i]);
            assert_eq!(
                render_json_site_answer(program, site, mods, uses, dmod),
                want,
                "{ctx}: site {i} answer"
            );
            assert_eq!(
                session.site_answer(program, site, mods, uses, dmod),
                want,
                "{ctx}: site {i} session answer"
            );
            assert_eq!(
                set_names(program, mods),
                oracle::set_text(program, mods),
                "{ctx}: site {i} text set"
            );
        }
    }

    /// Both procedure answer forms, one-shot and through `session`,
    /// byte-identical to the oracle on the exact and the widened sets of
    /// every procedure.
    fn assert_procs_match_oracle(
        session: &mut SessionRenderer,
        program: &Program,
        summary: &modref_core::Summary,
        ctx: &str,
    ) {
        for p in program.procs() {
            let name = program.proc_name(p);
            let wide = program.visible_set(p);
            for [gmod, guse] in [[summary.gmod(p), summary.guse(p)], [&wide, &wide]] {
                let want = oracle::proc_(program, name, gmod, guse);
                assert_eq!(
                    render_json_proc(program, name, gmod, guse),
                    want,
                    "{ctx}: proc {name}"
                );
                assert_eq!(
                    session.proc_answer(program, name, gmod, guse),
                    want,
                    "{ctx}: proc {name} session answer"
                );
            }
        }
    }

    /// Exact and conservatively widened sets of `program`, at every site
    /// and procedure, all oracle-checked through one `session`.
    fn assert_program_matches_oracle(session: &mut SessionRenderer, program: &Program, ctx: &str) {
        let summary = Analyzer::new().analyze(program);
        let exact = SiteSets::from_summary(program, &summary);
        assert_matches_oracle(session, program, &exact, ctx);
        let wide = SiteSets::conservative(program);
        assert_matches_oracle(session, program, &wide, &format!("{ctx} wide"));
        assert_procs_match_oracle(session, program, &summary, ctx);
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
                let ctx = format!("{family} seed {seed}");
                assert_program_matches_oracle(&mut SessionRenderer::new(), &program, &ctx);
            }
        }
    }

    /// One session renderer carried across seeded edit streams, with
    /// `add-proc` and `remove-proc` among the edits, answers every site
    /// and procedure after every edit with the oracle's bytes. It keeps
    /// its names while an edit keeps the variable table and rebuilds them
    /// when an edit replaces it; the streams do both.
    #[test]
    fn session_renderer_follows_the_variable_table_across_edits() {
        use crate::EditGen;
        use modref_ir::Edit;
        use modref_progen::{generate, GenConfig};
        let (mut kept, mut rebuilt, mut added, mut removed) = (0, 0, 0, 0);
        for seed in 0..3 {
            for (family, config) in [
                ("fortran_like", GenConfig::fortran_like(30)),
                ("pascal_like", GenConfig::pascal_like(30, 3)),
            ] {
                let mut program = generate(&config, seed);
                let mut session = SessionRenderer::new();
                let mut gen = EditGen::new(seed);
                for step in 0..16 {
                    let ctx = format!("{family} seed {seed} step {step}");
                    let before = session
                        .table
                        .as_ref()
                        .map(|(key, table)| (Arc::clone(key), table.names.as_ptr()));
                    let summary = Analyzer::new().analyze(&program);
                    let exact = SiteSets::from_summary(&program, &summary);
                    assert_answers_match_oracle(&mut session, &program, &exact, &ctx);
                    let wide = SiteSets::conservative(&program);
                    assert_answers_match_oracle(&mut session, &program, &wide, &ctx);
                    assert_procs_match_oracle(&mut session, &program, &summary, &ctx);
                    let (key, table) = session.table.as_ref().expect("answers built a table");
                    assert!(Arc::ptr_eq(key, program.var_table()), "{ctx}: stale key");
                    if let Some((old_key, old_names)) = before {
                        if Arc::ptr_eq(&old_key, key) {
                            assert_eq!(old_names, table.names.as_ptr(), "{ctx}: rebuilt");
                            kept += 1;
                        } else {
                            rebuilt += 1;
                        }
                    }
                    let edit = gen.next_structural_edit(&program);
                    if let Ok((next, _)) = program.apply_edit(&edit) {
                        match edit {
                            Edit::AddProcedure { formals, .. } if !formals.is_empty() => {
                                added += 1;
                            }
                            Edit::RemoveProcedure { .. } => removed += 1,
                            _ => {}
                        }
                        program = next;
                    }
                }
            }
        }
        assert!(
            kept > 0 && rebuilt > 0 && added > 0 && removed > 0,
            "kept {kept}, rebuilt {rebuilt}, add-proc {added}, remove-proc {removed}"
        );
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
        let mut session = SessionRenderer::new();
        assert_program_matches_oracle(&mut session, &program, "escaped names");

        let all = BitSet::full(program.num_vars());
        let sets = SiteSets {
            mods: vec![all.clone(); program.num_sites()],
            uses: vec![all.clone(); program.num_sites()],
            dmods: vec![all; program.num_sites()],
        };
        assert_matches_oracle(&mut session, &program, &sets, "full sets");

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
        assert_matches_oracle(&mut SessionRenderer::new(), &program, &sets, "empty sets");
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
