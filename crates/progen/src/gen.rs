//! The seeded program generator.

use std::collections::HashSet;

use modref_check::Rng;
use modref_ir::{
    Actual, BinOp, Expr, ProcId, Program, ProgramBuilder, Ref, Stmt, Subscript, VarId,
};

use crate::config::GenConfig;

/// Generates a random, *valid* program from `config`, deterministically in
/// `seed`.
///
/// # Panics
///
/// Panics only if the generated program fails validation — which would be
/// a generator bug, not an input condition.
pub fn generate(config: &GenConfig, seed: u64) -> Program {
    let mut rng = Rng::seed_from_u64(seed);
    let mut b = ProgramBuilder::new();
    let mut gen = Gen {
        config,
        rng: &mut rng,
        globals: Vec::new(),
        global_arrays: Vec::new(),
        procs: Vec::new(),
        call_edges: Vec::new(),
    };
    gen.run(&mut b);
    b.finish().expect("generator produced an invalid program")
}

struct Gen<'a> {
    config: &'a GenConfig,
    rng: &'a mut Rng,
    globals: Vec<VarId>,
    /// `(var, rank)`.
    global_arrays: Vec<(VarId, usize)>,
    procs: Vec<ProcId>,
    call_edges: Vec<(ProcId, ProcId)>,
}

impl Gen<'_> {
    fn run(&mut self, b: &mut ProgramBuilder) {
        let cfg = self.config;

        for i in 0..cfg.num_globals {
            self.globals.push(b.global(&format!("g{i}")));
        }
        for i in 0..cfg.num_global_arrays {
            let rank = 1 + (i % 2);
            self.global_arrays
                .push((b.global_array(&format!("arr{i}"), rank), rank));
        }

        // Procedure tree.
        for i in 0..cfg.num_procs {
            let parent = self.pick_parent(b);
            let n_formals = self.range(cfg.formals_per_proc);
            let formals: Vec<(String, usize)> = (0..n_formals)
                .map(|j| {
                    let is_array = !self.global_arrays.is_empty() && self.rng.gen_bool(0.15);
                    (format!("f{j}_{i}"), usize::from(is_array))
                })
                .collect();
            let ranked: Vec<(&str, usize)> =
                formals.iter().map(|(n, r)| (n.as_str(), *r)).collect();
            let p = b.nested_proc_ranked(parent, &format!("proc{i}"), &ranked);
            for j in 0..self.range(cfg.locals_per_proc) {
                b.local(p, &format!("t{j}_{i}"));
            }
            self.procs.push(p);
        }

        // Bodies: writes, reads, and calls.
        let all_procs: Vec<ProcId> = std::iter::once(ProcId::MAIN)
            .chain(self.procs.iter().copied())
            .collect();
        for &p in &all_procs {
            self.gen_writes(b, p);
            self.gen_calls(b, p);
        }

        if cfg.ensure_reachable {
            self.connect_unreachable(b);
        }
    }

    fn pick_parent(&mut self, b: &ProgramBuilder) -> ProcId {
        let cfg = self.config;
        if cfg.max_level > 1 && !self.procs.is_empty() && self.rng.gen_bool(cfg.nesting_bias) {
            // Try a few times to find a proc shallow enough to nest in.
            for _ in 0..4 {
                let candidate = self.procs[self.rng.gen_range(0..self.procs.len())];
                if level_of(b, candidate) < cfg.max_level {
                    return candidate;
                }
            }
        }
        ProcId::MAIN
    }

    fn gen_writes(&mut self, b: &mut ProgramBuilder, p: ProcId) {
        for _ in 0..self.range(self.config.writes_per_proc) {
            let scalars = self.visible_scalars(b, p);
            if scalars.is_empty() {
                continue;
            }
            let target = scalars[self.rng.gen_range(0..scalars.len())];
            let value = self.gen_expr(&scalars);
            // Occasionally write an array element instead.
            if !self.global_arrays.is_empty() && self.rng.gen_bool(0.2) {
                let (arr, rank) =
                    self.global_arrays[self.rng.gen_range(0..self.global_arrays.len())];
                let subs = (0..rank)
                    .map(|_| self.gen_subscript(&scalars))
                    .collect::<Vec<_>>();
                b.assign_indexed(p, arr, subs, value);
            } else {
                b.assign(p, target, value);
            }
        }
        // A read and a print for USE-side variety.
        let scalars = self.visible_scalars(b, p);
        if !scalars.is_empty() && self.rng.gen_bool(0.5) {
            let v = scalars[self.rng.gen_range(0..scalars.len())];
            b.read(p, v);
        }
        if !scalars.is_empty() && self.rng.gen_bool(0.5) {
            let e = self.gen_expr(&scalars);
            b.print(p, e);
        }
    }

    fn gen_calls(&mut self, b: &mut ProgramBuilder, p: ProcId) {
        for _ in 0..self.range(self.config.calls_per_proc) {
            let callees = self.visible_callees(b, p);
            if callees.is_empty() {
                continue;
            }
            let callee = callees[self.rng.gen_range(0..callees.len())];
            self.emit_call(b, p, callee);
        }
    }

    fn emit_call(&mut self, b: &mut ProgramBuilder, p: ProcId, callee: ProcId) {
        let args = self.gen_actuals(b, p, callee);
        let call = b.call_stmt(p, callee, args);
        self.call_edges.push((p, callee));
        let scalars = self.visible_scalars(b, p);
        if self.rng.gen_bool(self.config.control_flow_prob) && !scalars.is_empty() {
            let cond = Expr::binary(
                BinOp::Lt,
                self.gen_expr(&scalars),
                Expr::constant(self.rng.gen_range(0..100)),
            );
            let wrapped = if self.rng.gen_bool(0.5) {
                Stmt::If {
                    cond,
                    then_branch: vec![call],
                    else_branch: vec![],
                }
            } else {
                Stmt::While {
                    cond,
                    body: vec![call],
                }
            };
            b.stmt(p, wrapped);
        } else {
            b.stmt(p, call);
        }
    }

    fn gen_actuals(&mut self, b: &ProgramBuilder, p: ProcId, callee: ProcId) -> Vec<Actual> {
        let cfg = self.config;
        let callee_formals = formals_with_rank(b, callee);
        let scalars = self.visible_scalars(b, p);
        let context_formals = self.context_scalar_formals(b, p);
        callee_formals
            .iter()
            .map(|&(_, rank)| {
                if rank > 0 {
                    // Array formal: pass a whole rank-matching array or a
                    // section of a rank-2 global.
                    if let Some(&(arr, _)) = self.global_arrays.iter().find(|&&(_, r)| r == rank) {
                        return Actual::Ref(Ref::scalar(arr));
                    }
                    if let Some(&(big, 2)) = self.global_arrays.iter().find(|&&(_, r)| r == 2) {
                        if rank == 1 {
                            let sub = self.gen_subscript(&scalars);
                            return Actual::Ref(Ref::indexed(big, [sub, Subscript::All]));
                        }
                    }
                    return Actual::Value(Expr::constant(0));
                }
                if self.rng.gen_bool(cfg.value_actual_prob) || scalars.is_empty() {
                    return Actual::Value(self.gen_expr(&scalars));
                }
                if !context_formals.is_empty() && self.rng.gen_bool(cfg.formal_actual_bias) {
                    let f = context_formals[self.rng.gen_range(0..context_formals.len())];
                    return Actual::Ref(Ref::scalar(f));
                }
                Actual::Ref(Ref::scalar(scalars[self.rng.gen_range(0..scalars.len())]))
            })
            .collect()
    }

    /// Adds `parent → p` calls until every procedure is reachable from
    /// main. Processing in creation order keeps the induction simple:
    /// parents are created (and therefore fixed up) before children, so
    /// the added caller is always reachable already. Linear overall.
    fn connect_unreachable(&mut self, b: &mut ProgramBuilder) {
        let n_total = self.procs.len() + 1;
        let mut adj: Vec<Vec<usize>> = vec![Vec::new(); n_total];
        for &(from, to) in &self.call_edges {
            adj[from.index()].push(to.index());
        }
        let mut reach = vec![false; n_total];
        let mut stack = vec![ProcId::MAIN.index()];
        reach[ProcId::MAIN.index()] = true;
        while let Some(v) = stack.pop() {
            #[allow(clippy::needless_range_loop)] // `adj` grows during the pass
            for i in 0..adj[v].len() {
                let w = adj[v][i];
                if !reach[w] {
                    reach[w] = true;
                    stack.push(w);
                }
            }
        }
        for p in self.procs.clone() {
            if reach[p.index()] {
                continue;
            }
            let parent = parent_of(b, p);
            self.emit_call(b, parent, p);
            adj[parent.index()].push(p.index());
            // Propagate the newly reachable region.
            reach[p.index()] = true;
            let mut stack = vec![p.index()];
            while let Some(v) = stack.pop() {
                #[allow(clippy::needless_range_loop)] // `adj` grows during the pass
                for i in 0..adj[v].len() {
                    let w = adj[v][i];
                    if !reach[w] {
                        reach[w] = true;
                        stack.push(w);
                    }
                }
            }
        }
    }

    fn gen_expr(&mut self, scalars: &[VarId]) -> Expr {
        match self.rng.gen_range(0..4) {
            0 => Expr::constant(self.rng.gen_range(-5..100)),
            1 | 2 if !scalars.is_empty() => {
                Expr::load(scalars[self.rng.gen_range(0..scalars.len())])
            }
            _ if !scalars.is_empty() => Expr::binary(
                match self.rng.gen_range(0..3) {
                    0 => BinOp::Add,
                    1 => BinOp::Sub,
                    _ => BinOp::Mul,
                },
                Expr::load(scalars[self.rng.gen_range(0..scalars.len())]),
                Expr::constant(self.rng.gen_range(0..10)),
            ),
            _ => Expr::constant(self.rng.gen_range(0..10)),
        }
    }

    fn gen_subscript(&mut self, scalars: &[VarId]) -> Subscript {
        if !scalars.is_empty() && self.rng.gen_bool(0.5) {
            Subscript::Var(scalars[self.rng.gen_range(0..scalars.len())])
        } else {
            Subscript::Const(self.rng.gen_range(0..16))
        }
    }

    fn range(&mut self, (lo, hi): (usize, usize)) -> usize {
        if lo >= hi {
            lo
        } else {
            self.rng.gen_range(lo..=hi)
        }
    }

    /// Scalar variables visible in `p`: globals plus the scalars of `p`
    /// and its lexical ancestors.
    fn visible_scalars(&self, b: &ProgramBuilder, p: ProcId) -> Vec<VarId> {
        let mut vars = self.globals.clone();
        let mut cursor = Some(p);
        while let Some(cur) = cursor {
            for (f, rank) in formals_with_rank(b, cur) {
                if rank == 0 {
                    vars.push(f);
                }
            }
            vars.extend(b.locals_of(cur).iter().copied());
            cursor = parent_opt(b, cur);
        }
        vars
    }

    /// Scalar formals of `p` and its ancestors (the binding-edge sources).
    fn context_scalar_formals(&self, b: &ProgramBuilder, p: ProcId) -> Vec<VarId> {
        let mut vars = Vec::new();
        let mut cursor = Some(p);
        while let Some(cur) = cursor {
            for (f, rank) in formals_with_rank(b, cur) {
                if rank == 0 {
                    vars.push(f);
                }
            }
            cursor = parent_opt(b, cur);
        }
        vars
    }

    /// Procedures callable from `p` (children, ancestors, and children of
    /// ancestors), excluding main.
    fn visible_callees(&self, b: &ProgramBuilder, p: ProcId) -> Vec<ProcId> {
        // First-seen order with a hash-set membership test: a linear
        // `contains` made this quadratic in the number of siblings.
        let mut out: Vec<ProcId> = Vec::new();
        let mut seen: HashSet<ProcId> = HashSet::new();
        let mut push = |q: ProcId| {
            if q != ProcId::MAIN && seen.insert(q) {
                out.push(q);
            }
        };
        for &c in children_of(b, p) {
            push(c);
        }
        let mut cursor = parent_opt(b, p);
        while let Some(a) = cursor {
            push(a);
            for &c in children_of(b, a) {
                push(c);
            }
            cursor = parent_opt(b, a);
        }
        out
    }
}

// --- small builder probes (keep the builder API surface honest) --------

fn level_of(b: &ProgramBuilder, p: ProcId) -> u32 {
    b.level_of(p)
}

fn parent_of(b: &ProgramBuilder, p: ProcId) -> ProcId {
    b.parent_of(p).expect("non-main procedures have parents")
}

fn parent_opt(b: &ProgramBuilder, p: ProcId) -> Option<ProcId> {
    b.parent_of(p)
}

fn children_of(b: &ProgramBuilder, p: ProcId) -> &[ProcId] {
    b.children_of(p)
}

fn formals_with_rank(b: &ProgramBuilder, p: ProcId) -> Vec<(VarId, usize)> {
    b.formals_of(p).iter().map(|&f| (f, b.rank_of(f))).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generated_programs_validate_across_seeds_and_shapes() {
        for seed in 0..30u64 {
            for cfg in [
                GenConfig::tiny(3, 1),
                GenConfig::tiny(8, 3),
                GenConfig::fortran_like(15),
                GenConfig::pascal_like(15, 4),
                GenConfig::binding_heavy(10, 3),
            ] {
                let program = generate(&cfg, seed);
                program
                    .validate()
                    .unwrap_or_else(|e| panic!("seed {seed} cfg {cfg:?}: {e}"));
            }
        }
    }

    #[test]
    fn degenerate_configs_still_generate_valid_programs() {
        for cfg in [
            GenConfig {
                num_procs: 0,
                ..GenConfig::default()
            },
            GenConfig {
                num_globals: 0,
                num_global_arrays: 0,
                ..GenConfig::tiny(3, 1)
            },
            GenConfig {
                calls_per_proc: (0, 0),
                ..GenConfig::tiny(4, 2)
            },
            GenConfig {
                formals_per_proc: (0, 0),
                ..GenConfig::binding_heavy(4, 1)
            },
        ] {
            for seed in 0..5 {
                let program = generate(&cfg, seed);
                assert!(program.validate().is_ok(), "cfg {cfg:?} seed {seed}");
            }
        }
    }

    #[test]
    fn determinism() {
        let cfg = GenConfig::pascal_like(25, 3);
        let a = generate(&cfg, 42);
        let b = generate(&cfg, 42);
        assert_eq!(a.to_source(), b.to_source());
        let c = generate(&cfg, 43);
        assert_ne!(a.to_source(), c.to_source());
    }

    #[test]
    fn reachability_holds_when_requested() {
        for seed in 0..20u64 {
            let cfg = GenConfig {
                ensure_reachable: true,
                ..GenConfig::pascal_like(20, 3)
            };
            let program = generate(&cfg, seed);
            let cg = modref_ir::CallGraph::build(&program);
            let reach = cg.reachable_from_main();
            assert!(
                reach.iter().all(|&r| r),
                "seed {seed}: unreachable procedure"
            );
        }
    }

    #[test]
    fn nesting_respects_max_level() {
        let cfg = GenConfig::pascal_like(40, 3);
        let program = generate(&cfg, 7);
        assert!(program.max_level() <= 3);
        // And with enough procs it actually nests.
        assert!(program.max_level() >= 2, "expected some nesting");
    }

    #[test]
    fn parameter_averages_respond_to_config() {
        let skinny = generate(&GenConfig::binding_heavy(20, 1), 1);
        let wide = generate(&GenConfig::binding_heavy(20, 6), 1);
        assert!(wide.mean_formals() > skinny.mean_formals());
    }

    #[test]
    fn generated_source_reparses() {
        // Full loop: generate → pretty-print → parse → validate.
        let program = generate(&GenConfig::pascal_like(12, 3), 99);
        let text = program.to_source();
        let reparsed = modref_frontend::parse_program(&text)
            .unwrap_or_else(|e| panic!("generated source must reparse: {e}\n{text}"));
        assert_eq!(reparsed.num_procs(), program.num_procs());
        assert_eq!(reparsed.num_sites(), program.num_sites());
    }
}
