//! The regular-section data-flow problems (§6).
//!
//! Two cooperating solvers, mirroring the scalar decomposition:
//!
//! 1. **Formal arrays** — `rsd(fp₁) = lrsd(fp₁) ⊓ ⊓_e g_e(rsd(fp₂))` over
//!    the array sub-graph of the binding multi-graph, leaves-to-roots over
//!    the SCC condensation, iterating inside a component until stable
//!    (bounded by the lattice height, `rank + 2`).
//! 2. **Global arrays** — the "vectors of lattice elements" extension of
//!    the bit-vector global problem: per procedure, one section per global
//!    array, met over the call graph's SCC condensation in reverse
//!    topological order (global arrays are never filtered, so one meet per
//!    edge suffices).
//!
//! Per-call-site sections are then the `b_e`-analog projection: the bound
//! actual receives `g_e(rsd(formal))`, and every global array receives the
//! callee's summary section.

use std::collections::HashMap;

use modref_graph::{tarjan, DiGraph};
use modref_guard::{Guard, Interrupt, Strided};
use modref_ir::{Actual, CallSiteId, Expr, ProcId, Program, Ref, Stmt, Subscript, VarId, VarKind};

use crate::bindfn::EdgeFn;
use crate::lattice::{Section, SubscriptPos};

/// Everything the section analysis computed.
#[derive(Debug, Clone)]
pub struct SectionSummary {
    rsd_mod: HashMap<VarId, Section>,
    rsd_use: HashMap<VarId, Section>,
    garr_mod: Vec<HashMap<VarId, Section>>,
    garr_use: Vec<HashMap<VarId, Section>>,
    site_mod: Vec<HashMap<VarId, Section>>,
    site_use: Vec<HashMap<VarId, Section>>,
    meets: u64,
}

impl SectionSummary {
    /// The section of array formal `f` modified by an invocation of its
    /// owner (`⊥` if never written).
    pub fn formal_mod_section(&self, f: VarId) -> &Section {
        self.rsd_mod.get(&f).unwrap_or(&Section::Bottom)
    }

    /// The section of array formal `f` read by an invocation of its owner.
    pub fn formal_use_section(&self, f: VarId) -> &Section {
        self.rsd_use.get(&f).unwrap_or(&Section::Bottom)
    }

    /// The section of global array `a` modified by an invocation of `p`.
    pub fn global_mod_section(&self, p: ProcId, a: VarId) -> &Section {
        self.garr_mod[p.index()].get(&a).unwrap_or(&Section::Bottom)
    }

    /// The section of global array `a` read by an invocation of `p`.
    pub fn global_use_section(&self, p: ProcId, a: VarId) -> &Section {
        self.garr_use[p.index()].get(&a).unwrap_or(&Section::Bottom)
    }

    /// The section of array `a` the call at `s` may modify, `None` if the
    /// call cannot touch `a`.
    pub fn mod_section_at_site(&self, s: CallSiteId, a: VarId) -> Option<&Section> {
        self.site_mod[s.index()]
            .get(&a)
            .filter(|sec| !sec.is_bottom())
    }

    /// The section of array `a` the call at `s` may read.
    pub fn use_section_at_site(&self, s: CallSiteId, a: VarId) -> Option<&Section> {
        self.site_use[s.index()]
            .get(&a)
            .filter(|sec| !sec.is_bottom())
    }

    /// All arrays the call at `s` may modify, with their sections.
    pub fn mod_sections_at_site(&self, s: CallSiteId) -> impl Iterator<Item = (VarId, &Section)> {
        self.site_mod[s.index()]
            .iter()
            .filter(|(_, sec)| !sec.is_bottom())
            .map(|(&v, sec)| (v, sec))
    }

    /// Number of lattice meet operations performed (the §6 cost unit).
    pub fn meets_performed(&self) -> u64 {
        self.meets
    }
}

/// Runs the full section analysis (both solvers, `MOD` and `USE` sides,
/// and the per-site projection).
pub fn analyze_sections(program: &Program) -> SectionSummary {
    analyze_sections_traced(
        program,
        &Guard::unlimited(),
        &modref_trace::Trace::disabled(),
    )
    .expect("an unlimited guard cannot interrupt the solver")
}

/// [`analyze_sections`] under a cooperative [`Guard`], recording into
/// `trace`.
///
/// The guard is polled at every stage boundary and on inner-loop
/// strides, with lattice meets charged as bit-vector steps (a meet is a
/// whole-descriptor operation, the §6 cost unit). The trace gets a
/// `sections` span (annotated with the total meet count) and one
/// sub-span per solver stage — `sections.local`, `sections.formals`,
/// `sections.globals`, `sections.sites`. Identical output; tracing only
/// observes.
///
/// # Errors
///
/// Returns the guard's [`Interrupt`] if a deadline, budget, or
/// cancellation trips mid-analysis; partial stage results are discarded.
pub fn analyze_sections_traced(
    program: &Program,
    guard: &Guard,
    trace: &modref_trace::Trace,
) -> Result<SectionSummary, Interrupt> {
    guard.checkpoint("sections")?;
    let mut outer = trace.span("sections");
    let mut meets = 0u64;
    let local = {
        let _span = trace.span("sections.local");
        LocalSections::collect(program)
    };
    guard.charge(0, program.num_procs() as u64);
    guard.check()?;

    let mut formal_span = trace.span("sections.formals");
    let (rsd_mod, m1) = solve_sections_from(program, &local.formal_mod, guard)?;
    let (rsd_use, m2) = solve_sections_from(program, &local.formal_use, guard)?;
    meets += m1 + m2;
    formal_span.arg("meets", m1 + m2);
    drop(formal_span);

    let mut global_span = trace.span("sections.globals");
    let (garr_mod, m3) = solve_global_arrays(program, &local.global_mod, &rsd_mod, guard)?;
    let (garr_use, m4) = solve_global_arrays(program, &local.global_use, &rsd_use, guard)?;
    meets += m3 + m4;
    global_span.arg("meets", m3 + m4);
    drop(global_span);

    let mut site_span = trace.span("sections.sites");
    let (site_mod, m5) = project_sites(program, &rsd_mod, &garr_mod, guard)?;
    let (site_use, m6) = project_sites(program, &rsd_use, &garr_use, guard)?;
    meets += m5 + m6;
    site_span.arg("meets", m5 + m6);
    drop(site_span);

    outer.arg("meets", meets);
    Ok(SectionSummary {
        rsd_mod,
        rsd_use,
        garr_mod,
        garr_use,
        site_mod,
        site_use,
        meets,
    })
}

/// Solves only the formal-array problem for the `MOD` side, returning the
/// per-formal sections and the number of meets (for the E5 experiment).
pub fn solve_sections(program: &Program) -> (HashMap<VarId, Section>, u64) {
    let local = LocalSections::collect(program);
    solve_sections_from(program, &local.formal_mod, &Guard::unlimited())
        .expect("an unlimited guard cannot interrupt the solver")
}

// --- local (intraprocedural) section collection -------------------------

#[derive(Debug, Default)]
struct LocalSections {
    /// Per array formal: locally accessed section, in the owner's frame
    /// (§3.3-extended: accesses from nested procedures count, with
    /// inner-frame symbols widened).
    formal_mod: HashMap<VarId, Section>,
    formal_use: HashMap<VarId, Section>,
    /// Per procedure, per global array.
    global_mod: Vec<HashMap<VarId, Section>>,
    global_use: Vec<HashMap<VarId, Section>>,
}

impl LocalSections {
    fn collect(program: &Program) -> Self {
        let mut out = LocalSections {
            global_mod: vec![HashMap::new(); program.num_procs()],
            global_use: vec![HashMap::new(); program.num_procs()],
            ..LocalSections::default()
        };
        for p in program.procs() {
            modref_ir::walk_stmts(program.proc_(p).body(), &mut |s| {
                out.stmt(program, p, s);
            });
        }
        // §3.3-style extension for global arrays: charge a nested
        // procedure's accesses to its ancestors too (bottom-up).
        let mut order: Vec<ProcId> = program.procs().collect();
        order.sort_by_key(|&p| std::cmp::Reverse(program.proc_(p).level()));
        for &p in &order {
            for q in program.proc_(p).children().to_vec() {
                let child_mod: Vec<(VarId, Section)> = out.global_mod[q.index()]
                    .iter()
                    .map(|(&a, s)| (a, s.clone()))
                    .collect();
                for (a, sec) in child_mod {
                    // Symbols from q's frame may not mean anything in p;
                    // widen what is not visible in p.
                    let sec = widen_to_frame(program, &sec, p);
                    meet_into(&mut out.global_mod[p.index()], a, sec);
                }
                let child_use: Vec<(VarId, Section)> = out.global_use[q.index()]
                    .iter()
                    .map(|(&a, s)| (a, s.clone()))
                    .collect();
                for (a, sec) in child_use {
                    let sec = widen_to_frame(program, &sec, p);
                    meet_into(&mut out.global_use[p.index()], a, sec);
                }
            }
        }
        out
    }

    fn stmt(&mut self, program: &Program, p: ProcId, s: &Stmt) {
        match s {
            Stmt::Assign { target, value } => {
                self.access(program, p, target, true);
                self.expr(program, p, value);
            }
            Stmt::Read { target } => self.access(program, p, target, true),
            Stmt::Print { value } => self.expr(program, p, value),
            Stmt::If { cond, .. } | Stmt::While { cond, .. } => self.expr(program, p, cond),
            Stmt::Call { site } => {
                // By-value actuals are evaluated locally.
                for arg in program.site(*site).args() {
                    if let Actual::Value(e) = arg {
                        self.expr(program, p, e);
                    }
                }
            }
        }
    }

    fn expr(&mut self, program: &Program, p: ProcId, e: &Expr) {
        modref_ir::walk_exprs(e, &mut |sub| {
            if let Expr::Load(r) = sub {
                self.access(program, p, r, false);
            }
        });
    }

    fn access(&mut self, program: &Program, p: ProcId, r: &Ref, is_mod: bool) {
        let info = program.var(r.var);
        if info.rank() == 0 {
            return;
        }
        let sec = section_of_ref(program, r);
        match info.kind() {
            VarKind::Formal { .. } => {
                let owner = info.owner().expect("formals have owners");
                // Accesses from procedures nested in the owner count, in
                // the owner's frame.
                let framed = widen_to_frame(program, &sec, owner);
                let map = if is_mod {
                    &mut self.formal_mod
                } else {
                    &mut self.formal_use
                };
                let entry = map.entry(r.var).or_insert(Section::Bottom);
                *entry = entry.meet(&framed);
            }
            VarKind::Global => {
                let map = if is_mod {
                    &mut self.global_mod
                } else {
                    &mut self.global_use
                };
                meet_into(&mut map[p.index()], r.var, sec);
            }
            VarKind::Local => { /* local arrays never outlive their owner */ }
        }
    }
}

/// The access descriptor of a textual array reference.
fn section_of_ref(program: &Program, r: &Ref) -> Section {
    let rank = program.var(r.var).rank();
    if r.subs.is_empty() {
        return Section::whole(rank);
    }
    Section::Axes(
        r.subs
            .iter()
            .map(|s| match s {
                Subscript::Const(c) => SubscriptPos::Const(*c),
                Subscript::Var(v) => SubscriptPos::Sym(*v),
                Subscript::All => SubscriptPos::Star,
            })
            .collect(),
    )
}

/// Widens symbols not visible in `frame` to `★`.
fn widen_to_frame(program: &Program, sec: &Section, frame: ProcId) -> Section {
    match sec {
        Section::Bottom => Section::Bottom,
        Section::Axes(axes) => Section::Axes(
            axes.iter()
                .map(|&a| match a {
                    SubscriptPos::Sym(v) if !program.visible_in(v, frame) => SubscriptPos::Star,
                    other => other,
                })
                .collect(),
        ),
    }
}

fn meet_into(map: &mut HashMap<VarId, Section>, key: VarId, sec: Section) {
    let entry = map.entry(key).or_insert(Section::Bottom);
    *entry = entry.meet(&sec);
}

// --- the β-based formal-array solver ------------------------------------

struct ArrayBinding {
    from: VarId,
    to: VarId,
    edge_fn: EdgeFn,
}

/// Collects the array sub-graph of the binding multi-graph: edges where a
/// formal array of the calling context is bound (possibly as a section of
/// itself — rare, whole-array passes dominate) to an array formal of the
/// callee.
fn array_bindings(program: &Program) -> Vec<ArrayBinding> {
    let mut out = Vec::new();
    for s in program.sites() {
        let site = program.site(s);
        let caller = site.caller();
        let callee_formals = program.proc_(site.callee()).formals();
        for (pos, arg) in site.args().iter().enumerate() {
            let Actual::Ref(r) = arg else { continue };
            if program.var(r.var).rank() == 0 {
                continue;
            }
            let Some((owner, _)) = program.formal_position(r.var) else {
                continue;
            };
            let in_context = owner == caller || program.ancestors(caller).any(|a| a == owner);
            if !in_context {
                continue;
            }
            let to = callee_formals[pos];
            if program.var(to).rank() == 0 {
                continue;
            }
            if let Some(edge_fn) = EdgeFn::for_binding(program, s, r) {
                out.push(ArrayBinding {
                    from: r.var,
                    to,
                    edge_fn,
                });
            }
        }
    }
    out
}

fn solve_sections_from(
    program: &Program,
    lrsd: &HashMap<VarId, Section>,
    guard: &Guard,
) -> Result<(HashMap<VarId, Section>, u64), Interrupt> {
    let bindings = array_bindings(program);

    // Dense node numbering over participating array formals plus every
    // formal with a local access.
    let mut node_of: HashMap<VarId, usize> = HashMap::new();
    let mut formal_of: Vec<VarId> = Vec::new();
    let intern = |v: VarId, node_of: &mut HashMap<VarId, usize>, formal_of: &mut Vec<VarId>| {
        *node_of.entry(v).or_insert_with(|| {
            formal_of.push(v);
            formal_of.len() - 1
        })
    };
    for b in &bindings {
        intern(b.from, &mut node_of, &mut formal_of);
        intern(b.to, &mut node_of, &mut formal_of);
    }
    for &f in lrsd.keys() {
        intern(f, &mut node_of, &mut formal_of);
    }

    let n = formal_of.len();
    let mut graph = DiGraph::new(n);
    for b in &bindings {
        graph.add_edge(node_of[&b.from], node_of[&b.to]);
    }
    // edge id ↔ binding id coincide by construction order.

    let mut rsd: Vec<Section> = formal_of
        .iter()
        .map(|f| lrsd.get(f).cloned().unwrap_or(Section::Bottom))
        .collect();
    let mut meets = 0u64;

    // Leaves-to-roots over the condensation (tarjan numbers components in
    // reverse topological order), iterating inside each component.
    let sccs = tarjan(&graph);
    let mut charged = 0u64;
    for comp in 0..sccs.len() {
        let members: Vec<usize> = sccs.members(comp).to_vec();
        // Height of the product lattice bounds the iteration count.
        let bound = members
            .iter()
            .map(|&m| program.var(formal_of[m]).rank() + 2)
            .sum::<usize>()
            .max(1);
        for _round in 0..bound {
            guard.charge(meets - charged, 0);
            charged = meets;
            guard.check()?;
            let mut changed = false;
            for &m in &members {
                for (succ, e) in graph.successors(m) {
                    if sccs.component_of(succ) > comp {
                        continue; // not yet solved (cannot happen: reverse topo)
                    }
                    let b = &bindings[e];
                    let mapped = b.edge_fn.apply(program, &rsd[succ]);
                    meets += 1;
                    let next = rsd[m].meet(&mapped);
                    if next != rsd[m] {
                        rsd[m] = next;
                        changed = true;
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }

    guard.charge(meets - charged, 0);
    guard.check()?;
    let out = formal_of
        .into_iter()
        .zip(rsd)
        .filter(|(_, sec)| !sec.is_bottom())
        .collect();
    Ok((out, meets))
}

// --- the global-array solver --------------------------------------------

fn solve_global_arrays(
    program: &Program,
    local: &[HashMap<VarId, Section>],
    rsd: &HashMap<VarId, Section>,
    guard: &Guard,
) -> Result<(Vec<HashMap<VarId, Section>>, u64), Interrupt> {
    let mut meets = 0u64;
    let mut stride = Strided::new(256);
    // Seeds: local accesses plus site contributions where the actual is a
    // *global* array (formal-array actuals flow through the β solver).
    let mut val: Vec<HashMap<VarId, Section>> = local.to_vec();
    for s in program.sites() {
        stride.tick(guard)?;
        let site = program.site(s);
        let caller = site.caller();
        let callee_formals = program.proc_(site.callee()).formals();
        for (pos, arg) in site.args().iter().enumerate() {
            let Actual::Ref(r) = arg else { continue };
            if program.var(r.var).rank() == 0 || !program.var(r.var).is_global() {
                continue;
            }
            let formal = callee_formals[pos];
            if program.var(formal).rank() == 0 {
                continue;
            }
            let Some(fsec) = rsd.get(&formal) else {
                continue;
            };
            if let Some(edge_fn) = EdgeFn::for_binding(program, s, r) {
                let mapped = edge_fn.apply(program, fsec);
                meets += 1;
                meet_into(&mut val[caller.index()], r.var, mapped);
            }
        }
    }

    // Propagate callee → caller over the call-graph condensation,
    // leaves-first. Sections cross frames on the way up: symbols that are
    // not visible in the receiving procedure widen to ★, so the loop
    // inside a component is bounded by the product-lattice height.
    let cg = modref_ir::CallGraph::build(program);
    let sccs = tarjan(cg.graph());
    let mut charged = 0u64;
    for comp in 0..sccs.len() {
        let members: Vec<usize> = sccs.members(comp).to_vec();
        loop {
            guard.charge(meets - charged, 0);
            charged = meets;
            guard.check()?;
            let mut changed = false;
            for &m in &members {
                let frame = ProcId::new(m);
                for succ in cg.graph().successor_nodes(m).collect::<Vec<_>>() {
                    if succ == m {
                        continue;
                    }
                    let incoming: Vec<(VarId, Section)> = val[succ]
                        .iter()
                        .map(|(&a, sec)| (a, widen_to_frame(program, sec, frame)))
                        .collect();
                    for (a, sec) in incoming {
                        meets += 1;
                        let entry = val[m].entry(a).or_insert(Section::Bottom);
                        let next = entry.meet(&sec);
                        if next != *entry {
                            *entry = next;
                            changed = true;
                        }
                    }
                }
            }
            if !changed {
                break;
            }
        }
    }
    guard.charge(meets - charged, 0);
    guard.check()?;
    Ok((val, meets))
}

// --- per-site projection --------------------------------------------------

fn project_sites(
    program: &Program,
    rsd: &HashMap<VarId, Section>,
    garr: &[HashMap<VarId, Section>],
    guard: &Guard,
) -> Result<(Vec<HashMap<VarId, Section>>, u64), Interrupt> {
    let mut meets = 0u64;
    let mut charged = 0u64;
    let mut out = Vec::with_capacity(program.num_sites());
    for s in program.sites() {
        if s.index() % 64 == 0 {
            guard.charge(meets - charged, 0);
            charged = meets;
            guard.check()?;
        }
        let site = program.site(s);
        let callee = site.callee();
        let callee_formals = program.proc_(callee).formals();
        let mut map: HashMap<VarId, Section> = HashMap::new();
        // Global arrays the callee touches, widened into the caller's
        // frame (the callee's local symbols mean nothing at the site).
        for (&a, sec) in &garr[callee.index()] {
            meets += 1;
            meet_into(&mut map, a, widen_to_frame(program, sec, site.caller()));
        }
        // Bound array actuals receive the mapped formal sections.
        for (pos, arg) in site.args().iter().enumerate() {
            let Actual::Ref(r) = arg else { continue };
            if program.var(r.var).rank() == 0 {
                continue;
            }
            let formal = callee_formals[pos];
            let Some(fsec) = rsd.get(&formal) else {
                continue;
            };
            if let Some(edge_fn) = EdgeFn::for_binding(program, s, r) {
                let mapped = edge_fn.apply(program, fsec);
                meets += 1;
                meet_into(&mut map, r.var, mapped);
            }
        }
        out.push(map);
    }
    guard.charge(meets - charged, 0);
    guard.check()?;
    Ok((out, meets))
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_frontend::parse_program;

    fn var(program: &Program, name: &str) -> VarId {
        program
            .vars()
            .find(|&v| program.var_name(v) == name)
            .unwrap_or_else(|| panic!("no variable {name}"))
    }

    #[test]
    fn row_write_stays_a_row() {
        let program = parse_program(
            "var a[*, *];
             proc zero_row(row[*]) { var j; row[j] = 0; j = j + 1; }
             main { var i; call zero_row(a[i, *]); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let site = program.sites().next().unwrap();
        let sec = summary.mod_section_at_site(site, a).expect("a written");
        let i = var(&program, "i");
        assert_eq!(
            sec.axes().unwrap(),
            &[SubscriptPos::Sym(i), SubscriptPos::Star]
        );
    }

    #[test]
    fn column_section_binding() {
        let program = parse_program(
            "var a[*, *];
             proc touch(col[*]) { col[0] = 1; }
             main { call touch(a[*, 3]); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let site = program.sites().next().unwrap();
        let sec = summary.mod_section_at_site(site, a).expect("a written");
        // The formal is written at element 0 of the carried (first) axis:
        // a[0, 3].
        assert_eq!(
            sec.axes().unwrap(),
            &[SubscriptPos::Const(0), SubscriptPos::Const(3)]
        );
    }

    #[test]
    fn two_rows_meet_to_column_star() {
        let program = parse_program(
            "var a[*, *];
             proc w(row[*]) { row[7] = 0; }
             main { var i, k; call w(a[i, *]); call w(a[k, *]); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let sites: Vec<_> = program.sites().collect();
        // Each site individually knows its row.
        let i = var(&program, "i");
        let k = var(&program, "k");
        assert_eq!(
            summary
                .mod_section_at_site(sites[0], a)
                .unwrap()
                .axes()
                .unwrap(),
            &[SubscriptPos::Sym(i), SubscriptPos::Const(7)]
        );
        assert_eq!(
            summary
                .mod_section_at_site(sites[1], a)
                .unwrap()
                .axes()
                .unwrap(),
            &[SubscriptPos::Sym(k), SubscriptPos::Const(7)]
        );
        // The procedure-level summary for main meets them: a[*, 7].
        let sec = summary.global_mod_section(program.main(), a);
        assert_eq!(
            sec.axes().unwrap(),
            &[SubscriptPos::Star, SubscriptPos::Const(7)]
        );
    }

    #[test]
    fn recursive_whole_array_pass_converges() {
        // The paper's divide-and-conquer observation: passing the same
        // parameter over a recursive cycle must converge without the
        // lattice depth multiplying the cost.
        let program = parse_program(
            "var a[*, *];
             proc rec(m[*, *], d) {
               m[d, d] = 1;
               if (d < 10) { call rec(m, value d + 1); }
             }
             main { call rec(a, value 0); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let site = program
            .sites()
            .find(|&s| program.site(s).caller() == program.main())
            .unwrap();
        let sec = summary.mod_section_at_site(site, a).expect("a written");
        // d is by-value at the outer call and local inside: element m[d,d]
        // widens through the recursion to the diagonal-unknown [*, *]…
        // conservatively the whole array.
        assert!(sec.is_whole_array());
    }

    #[test]
    fn global_array_summary_propagates_up_call_chain() {
        let program = parse_program(
            "var a[*, *];
             proc leaf() { a[3, 4] = 1; }
             proc mid() { call leaf(); }
             main { call mid(); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        for name in ["leaf", "mid", "main"] {
            let p = program
                .procs()
                .find(|&p| program.proc_name(p) == name)
                .unwrap();
            assert_eq!(
                summary.global_mod_section(p, a).axes().unwrap(),
                &[SubscriptPos::Const(3), SubscriptPos::Const(4)],
                "at {name}"
            );
        }
        // And the site-level view at main agrees.
        let main_site = program
            .sites()
            .find(|&s| program.site(s).caller() == program.main())
            .unwrap();
        assert_eq!(
            summary
                .mod_section_at_site(main_site, a)
                .unwrap()
                .axes()
                .unwrap(),
            &[SubscriptPos::Const(3), SubscriptPos::Const(4)]
        );
    }

    #[test]
    fn use_and_mod_sides_are_separate() {
        let program = parse_program(
            "var a[*];
             proc reader(v[*]) { print v[2]; }
             proc writer(v[*]) { v[5] = 0; }
             main { call reader(a); call writer(a); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let sites: Vec<_> = program.sites().collect();
        assert!(summary.mod_section_at_site(sites[0], a).is_none());
        assert_eq!(
            summary
                .use_section_at_site(sites[0], a)
                .unwrap()
                .axes()
                .unwrap(),
            &[SubscriptPos::Const(2)]
        );
        assert_eq!(
            summary
                .mod_section_at_site(sites[1], a)
                .unwrap()
                .axes()
                .unwrap(),
            &[SubscriptPos::Const(5)]
        );
        assert!(summary.use_section_at_site(sites[1], a).is_none());
    }

    #[test]
    fn whole_array_read_reported() {
        let program = parse_program(
            "var a[*];
             proc sum(v[*]) { var i, acc; acc = acc + v[i]; }
             main { call sum(a); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let a = var(&program, "a");
        let site = program.sites().next().unwrap();
        // v[i] with i local to sum: unknown in main → [*].
        let sec = summary.use_section_at_site(site, a).expect("a read");
        assert!(sec.is_whole_array());
    }

    #[test]
    fn untouched_array_is_absent() {
        let program = parse_program(
            "var a[*], b[*];
             proc w(v[*]) { v[0] = 1; }
             main { call w(a); }",
        )
        .expect("parses");
        let summary = analyze_sections(&program);
        let b_arr = var(&program, "b");
        let site = program.sites().next().unwrap();
        assert!(summary.mod_section_at_site(site, b_arr).is_none());
        assert!(summary.mod_sections_at_site(site).all(|(v, _)| v != b_arr));
    }
}
