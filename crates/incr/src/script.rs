//! Edit scripts: a small text format plus a seeded random generator.
//!
//! The text format drives `modref analyze --edits <file>`; the generator
//! ([`EditGen`]) drives the differential property suite and the
//! `incrscale` bench. Both produce the same typed [`Edit`] values the
//! engine consumes, so a failing random script can be written down as a
//! text script and replayed by hand.
//!
//! # Grammar
//!
//! One edit per line; blank lines and `#` comments are skipped. Names
//! refer to the *current* program (each step sees the program after the
//! previous steps), and site indices are current [`CallSiteId`] values:
//!
//! ```text
//! set-local p mod=g,h use=k      # rewrite p's local effects
//! add-call main p args=g,3       # append `call p(g, 3)` to main
//! remove-call 2                  # remove call site 2
//! add-proc helper parent=main formals=x,y
//! remove-proc helper             # must be call-free first
//! rebind 0 1 h                   # site 0, argument 1, now passes h
//! ```
//!
//! A bare integer argument (`3` above) is passed by value; a name is a
//! by-reference scalar actual.

use modref_ir::{Actual, CallSiteId, Edit, Expr, ProcId, Program, Ref, VarId};

/// A parse or resolution failure, with the 1-based script line.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptError {
    /// 1-based line number in the script text.
    pub line: usize,
    /// What went wrong.
    pub message: String,
}

impl std::fmt::Display for ScriptError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "script line {}: {}", self.line, self.message)
    }
}

impl std::error::Error for ScriptError {}

fn err(line: usize, message: impl Into<String>) -> ScriptError {
    ScriptError {
        line,
        message: message.into(),
    }
}

/// One parsed (but unresolved) step: names stay names until the step is
/// resolved against the program state it applies to.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ScriptStep {
    /// 1-based source line, for error reporting.
    pub line: usize,
    op: Op,
}

#[derive(Debug, Clone, PartialEq, Eq)]
enum Op {
    SetLocal {
        proc_: String,
        mods: Vec<String>,
        uses: Vec<String>,
    },
    AddCall {
        caller: String,
        callee: String,
        args: Vec<String>,
    },
    RemoveCall {
        site: usize,
    },
    AddProc {
        name: String,
        parent: String,
        formals: Vec<String>,
    },
    RemoveProc {
        name: String,
    },
    Rebind {
        site: usize,
        position: usize,
        arg: String,
    },
}

/// A parsed edit script.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Script {
    steps: Vec<ScriptStep>,
}

impl Script {
    /// Parses the text format. Only syntax is checked here; names and
    /// site indices are resolved step by step during application, since
    /// each step sees the program produced by the previous ones.
    ///
    /// # Errors
    ///
    /// Returns the first malformed line.
    pub fn parse(text: &str) -> Result<Self, ScriptError> {
        let mut steps = Vec::new();
        for (idx, raw) in text.lines().enumerate() {
            let line = idx + 1;
            let content = raw.split('#').next().unwrap_or("").trim();
            if content.is_empty() {
                continue;
            }
            let mut tokens = content.split_whitespace();
            let verb = tokens.next().expect("non-empty line has a first token");
            let rest: Vec<&str> = tokens.collect();
            let op = match verb {
                "set-local" => {
                    let (names, opts) = split_options(line, &rest)?;
                    let [proc_] = positional(line, verb, &names, 1)?;
                    Op::SetLocal {
                        proc_,
                        mods: list_option(line, &opts, "mod")?,
                        uses: list_option(line, &opts, "use")?,
                    }
                }
                "add-call" => {
                    let (names, opts) = split_options(line, &rest)?;
                    let [caller, callee] = positional(line, verb, &names, 2)?;
                    Op::AddCall {
                        caller,
                        callee,
                        args: list_option(line, &opts, "args")?,
                    }
                }
                "remove-call" => {
                    let (names, _) = split_options(line, &rest)?;
                    let [site] = positional(line, verb, &names, 1)?;
                    Op::RemoveCall {
                        site: parse_index(line, &site, "site index")?,
                    }
                }
                "add-proc" => {
                    let (names, opts) = split_options(line, &rest)?;
                    let [name] = positional(line, verb, &names, 1)?;
                    let parent = opts
                        .iter()
                        .find(|(k, _)| k == "parent")
                        .map(|(_, v)| v.clone())
                        .ok_or_else(|| err(line, "add-proc needs parent=<proc>"))?;
                    Op::AddProc {
                        name,
                        parent,
                        formals: list_option(line, &opts, "formals")?,
                    }
                }
                "remove-proc" => {
                    let (names, _) = split_options(line, &rest)?;
                    let [name] = positional(line, verb, &names, 1)?;
                    Op::RemoveProc { name }
                }
                "rebind" => {
                    let (names, _) = split_options(line, &rest)?;
                    let [site, position, arg] = positional(line, verb, &names, 3)?;
                    Op::Rebind {
                        site: parse_index(line, &site, "site index")?,
                        position: parse_index(line, &position, "argument position")?,
                        arg,
                    }
                }
                other => return Err(err(line, format!("unknown edit verb `{other}`"))),
            };
            steps.push(ScriptStep { line, op });
        }
        Ok(Script { steps })
    }

    /// The parsed steps, in order.
    pub fn steps(&self) -> &[ScriptStep] {
        &self.steps
    }

    /// Number of steps.
    pub fn len(&self) -> usize {
        self.steps.len()
    }

    /// `true` for a script with no steps.
    pub fn is_empty(&self) -> bool {
        self.steps.is_empty()
    }
}

fn split_options(
    line: usize,
    tokens: &[&str],
) -> Result<(Vec<String>, Vec<(String, String)>), ScriptError> {
    let mut names = Vec::new();
    let mut opts = Vec::new();
    for &t in tokens {
        if let Some((k, v)) = t.split_once('=') {
            if k.is_empty() {
                return Err(err(line, format!("malformed option `{t}`")));
            }
            opts.push((k.to_string(), v.to_string()));
        } else {
            names.push(t.to_string());
        }
    }
    Ok((names, opts))
}

fn positional<const N: usize>(
    line: usize,
    verb: &str,
    names: &[String],
    want: usize,
) -> Result<[String; N], ScriptError> {
    debug_assert_eq!(N, want);
    if names.len() != want {
        return Err(err(
            line,
            format!(
                "`{verb}` takes {want} positional operand(s), got {}",
                names.len()
            ),
        ));
    }
    Ok(std::array::from_fn(|i| names[i].clone()))
}

fn list_option(
    line: usize,
    opts: &[(String, String)],
    key: &str,
) -> Result<Vec<String>, ScriptError> {
    let mut out = Vec::new();
    for (k, v) in opts {
        if k == key {
            if v.is_empty() {
                return Err(err(line, format!("empty `{key}=` list")));
            }
            out.extend(v.split(',').map(|s| s.trim().to_string()));
        }
    }
    Ok(out)
}

fn parse_index(line: usize, token: &str, what: &str) -> Result<usize, ScriptError> {
    token
        .parse::<usize>()
        .map_err(|_| err(line, format!("`{token}` is not a {what}")))
}

impl ScriptStep {
    /// Resolves names against `program` into a typed [`Edit`].
    ///
    /// Variable names prefer the global of that name, then a variable
    /// owned by the procedure the step concerns; an ambiguous or unknown
    /// name is an error. A token that parses as an integer denotes a
    /// by-value constant actual.
    ///
    /// # Errors
    ///
    /// Returns the unresolved name or out-of-range index, tagged with the
    /// step's script line.
    pub fn resolve(&self, program: &Program) -> Result<Edit, ScriptError> {
        let line = self.line;
        match &self.op {
            Op::SetLocal { proc_, mods, uses } => {
                let p = find_proc(program, proc_, line)?;
                Ok(Edit::SetLocalEffects {
                    proc_: p,
                    mods: resolve_vars(program, p, mods, line)?,
                    uses: resolve_vars(program, p, uses, line)?,
                })
            }
            Op::AddCall {
                caller,
                callee,
                args,
            } => {
                let caller = find_proc(program, caller, line)?;
                let callee = find_proc(program, callee, line)?;
                let mut actuals = Vec::with_capacity(args.len());
                for a in args {
                    actuals.push(resolve_actual(program, caller, a, line)?);
                }
                Ok(Edit::AddCallSite {
                    caller,
                    callee,
                    args: actuals,
                })
            }
            Op::RemoveCall { site } => Ok(Edit::RemoveCallSite {
                site: find_site(program, *site, line)?,
            }),
            Op::AddProc {
                name,
                parent,
                formals,
            } => Ok(Edit::AddProcedure {
                name: name.clone(),
                parent: find_proc(program, parent, line)?,
                formals: formals.clone(),
            }),
            Op::RemoveProc { name } => Ok(Edit::RemoveProcedure {
                proc_: find_proc(program, name, line)?,
            }),
            Op::Rebind {
                site,
                position,
                arg,
            } => {
                let site = find_site(program, *site, line)?;
                let caller = program.site(site).caller();
                Ok(Edit::RebindActual {
                    site,
                    position: *position,
                    actual: resolve_actual(program, caller, arg, line)?,
                })
            }
        }
    }
}

fn find_proc(program: &Program, name: &str, line: usize) -> Result<ProcId, ScriptError> {
    let mut found = None;
    for p in program.procs() {
        if program.symbols().resolve(program.proc_(p).name()) == name {
            if found.is_some() {
                return Err(err(line, format!("procedure name `{name}` is ambiguous")));
            }
            found = Some(p);
        }
    }
    found.ok_or_else(|| err(line, format!("unknown procedure `{name}`")))
}

fn find_site(program: &Program, index: usize, line: usize) -> Result<CallSiteId, ScriptError> {
    if index >= program.num_sites() {
        return Err(err(
            line,
            format!(
                "call site {index} out of range (program has {})",
                program.num_sites()
            ),
        ));
    }
    Ok(CallSiteId::new(index))
}

/// Name lookup for variables: the global of that name wins, then a
/// variable owned by `context`; anything else must be globally unique.
fn find_var(
    program: &Program,
    context: ProcId,
    name: &str,
    line: usize,
) -> Result<VarId, ScriptError> {
    let mut global = None;
    let mut owned = None;
    let mut other = Vec::new();
    for v in program.vars() {
        let info = program.var(v);
        if program.symbols().resolve(info.name()) != name {
            continue;
        }
        match info.owner() {
            None => global = Some(v),
            Some(p) if p == context => owned = Some(v),
            Some(_) => other.push(v),
        }
    }
    if let Some(v) = global.or(owned) {
        return Ok(v);
    }
    match other.len() {
        0 => Err(err(line, format!("unknown variable `{name}`"))),
        1 => Ok(other[0]),
        _ => Err(err(line, format!("variable name `{name}` is ambiguous"))),
    }
}

fn resolve_vars(
    program: &Program,
    context: ProcId,
    names: &[String],
    line: usize,
) -> Result<Vec<VarId>, ScriptError> {
    names
        .iter()
        .map(|n| find_var(program, context, n, line))
        .collect()
}

fn resolve_actual(
    program: &Program,
    caller: ProcId,
    token: &str,
    line: usize,
) -> Result<Actual, ScriptError> {
    if let Ok(value) = token.parse::<i64>() {
        return Ok(Actual::Value(Expr::constant(value)));
    }
    Ok(Actual::Ref(Ref::scalar(find_var(
        program, caller, token, line,
    )?)))
}

/// A seeded random edit generator (splitmix64, no external crates —
/// the same replayability contract as the `property!` harness: one `u64`
/// seed determines the whole script).
///
/// The generator aims for *mostly valid* edits — it respects visibility
/// and rank where cheap to do so — but makes no guarantee: callers skip
/// the occasional [`EditError`], which doubles as coverage of the
/// reject-leaves-state-intact path.
#[derive(Debug, Clone)]
pub struct EditGen {
    state: u64,
    fresh: u32,
}

impl EditGen {
    /// A generator whose whole output is determined by `seed`.
    pub fn new(seed: u64) -> Self {
        EditGen {
            state: seed,
            fresh: 0,
        }
    }

    fn next_u64(&mut self) -> u64 {
        // splitmix64 (public domain), as used by the check harness.
        self.state = self.state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn pick(&mut self, n: usize) -> usize {
        debug_assert!(n > 0);
        (self.next_u64() % n as u64) as usize
    }

    /// The next edit for the *current* state of `program`. Always returns
    /// an edit; when a rolled kind has no applicable target (no removable
    /// procedure, no call site), it falls back to a `set-local` edit,
    /// which is always available.
    pub fn next_edit(&mut self, program: &Program) -> Edit {
        let roll = self.pick(100);
        if roll < 45 {
            self.gen_set_local(program)
        } else if roll < 65 {
            self.gen_add_call(program)
        } else if roll < 75 {
            self.gen_remove_call(program)
                .unwrap_or_else(|| self.gen_set_local(program))
        } else if roll < 85 {
            self.gen_rebind(program)
                .unwrap_or_else(|| self.gen_set_local(program))
        } else if roll < 93 {
            self.gen_add_proc(program)
        } else {
            self.gen_remove_proc(program)
                .unwrap_or_else(|| self.gen_set_local(program))
        }
    }

    /// Like [`EditGen::next_edit`] but heavily biased toward *structural*
    /// edits — call insertion/removal, rebinding, procedure churn — the
    /// diet that exercises the engine's dynamic-condensation patch path
    /// (merges, splits, level reorders) instead of its set-local fast
    /// path. Set-local edits still appear (and are the fallback when a
    /// rolled kind has no target) so value and structure dirt interleave.
    pub fn next_structural_edit(&mut self, program: &Program) -> Edit {
        let roll = self.pick(100);
        if roll < 10 {
            self.gen_set_local(program)
        } else if roll < 45 {
            self.gen_add_call(program)
        } else if roll < 65 {
            self.gen_remove_call(program)
                .unwrap_or_else(|| self.gen_add_call(program))
        } else if roll < 80 {
            self.gen_rebind(program)
                .unwrap_or_else(|| self.gen_add_call(program))
        } else if roll < 90 {
            self.gen_add_proc(program)
        } else {
            self.gen_remove_proc(program)
                .unwrap_or_else(|| self.gen_add_call(program))
        }
    }

    fn random_proc(&mut self, program: &Program) -> ProcId {
        let n = program.num_procs();
        ProcId::new(self.pick(n))
    }

    /// Scalar variables visible in `p` — the safe pool for `set-local`
    /// targets and by-reference actuals.
    fn scalar_pool(&self, program: &Program, p: ProcId) -> Vec<VarId> {
        program
            .visible_set(p)
            .iter()
            .map(VarId::new)
            .filter(|&v| program.var(v).rank() == 0)
            .collect()
    }

    fn gen_set_local(&mut self, program: &Program) -> Edit {
        let p = self.random_proc(program);
        let pool = self.scalar_pool(program, p);
        let take = |gen: &mut Self, max: usize| -> Vec<VarId> {
            if pool.is_empty() {
                return Vec::new();
            }
            let count = gen.pick(max + 1);
            (0..count).map(|_| pool[gen.pick(pool.len())]).collect()
        };
        let mods = take(self, 3);
        let uses = take(self, 3);
        Edit::SetLocalEffects {
            proc_: p,
            mods,
            uses,
        }
    }

    fn gen_add_call(&mut self, program: &Program) -> Edit {
        let caller = self.random_proc(program);
        // Candidate callees whose declaring parent is the caller itself
        // or one of its ancestors — the nesting-visibility rule — so the
        // edit usually validates.
        let mut ancestors = vec![caller];
        let mut cur = caller;
        while let Some(parent) = program.proc_(cur).parent() {
            ancestors.push(parent);
            cur = parent;
        }
        let candidates: Vec<ProcId> = program
            .procs()
            .filter(|&q| {
                q != ProcId::MAIN
                    && program
                        .proc_(q)
                        .parent()
                        .is_some_and(|par| ancestors.contains(&par))
            })
            .collect();
        if candidates.is_empty() {
            return self.gen_set_local(program);
        }
        let callee = candidates[self.pick(candidates.len())];
        let pool = self.scalar_pool(program, caller);
        let args: Vec<Actual> = program
            .proc_(callee)
            .formals()
            .iter()
            .map(|_| {
                if pool.is_empty() || self.pick(4) == 0 {
                    Actual::Value(Expr::constant(self.pick(10) as i64))
                } else {
                    Actual::Ref(Ref::scalar(pool[self.pick(pool.len())]))
                }
            })
            .collect();
        Edit::AddCallSite {
            caller,
            callee,
            args,
        }
    }

    fn gen_remove_call(&mut self, program: &Program) -> Option<Edit> {
        let ns = program.num_sites();
        if ns == 0 {
            return None;
        }
        Some(Edit::RemoveCallSite {
            site: CallSiteId::new(self.pick(ns)),
        })
    }

    fn gen_rebind(&mut self, program: &Program) -> Option<Edit> {
        let with_args: Vec<CallSiteId> = program
            .sites()
            .filter(|&s| !program.site(s).args().is_empty())
            .collect();
        if with_args.is_empty() {
            return None;
        }
        let site = with_args[self.pick(with_args.len())];
        let call = program.site(site);
        let position = self.pick(call.args().len());
        let pool = self.scalar_pool(program, call.caller());
        let actual = if pool.is_empty() || self.pick(4) == 0 {
            Actual::Value(Expr::constant(self.pick(10) as i64))
        } else {
            Actual::Ref(Ref::scalar(pool[self.pick(pool.len())]))
        };
        Some(Edit::RebindActual {
            site,
            position,
            actual,
        })
    }

    fn gen_add_proc(&mut self, program: &Program) -> Edit {
        let parent = self.random_proc(program);
        self.fresh += 1;
        let formal_names = ["fa", "fb", "fc"];
        let count = self.pick(3);
        Edit::AddProcedure {
            name: format!("gen{}", self.fresh),
            parent,
            formals: formal_names[..count]
                .iter()
                .map(|s| s.to_string())
                .collect(),
        }
    }

    fn gen_remove_proc(&mut self, program: &Program) -> Option<Edit> {
        // Removable: not main, no nested procedures, call-free on both
        // sides (no site targets it, no site lives in it).
        let mut involved = vec![false; program.num_procs()];
        for s in program.sites() {
            let site = program.site(s);
            involved[site.caller().index()] = true;
            involved[site.callee().index()] = true;
        }
        let candidates: Vec<ProcId> = program
            .procs()
            .filter(|&p| {
                p != ProcId::MAIN && !involved[p.index()] && program.proc_(p).children().is_empty()
            })
            .collect();
        if candidates.is_empty() {
            return None;
        }
        Some(Edit::RemoveProcedure {
            proc_: candidates[self.pick(candidates.len())],
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use modref_ir::ProgramBuilder;

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
    fn parses_and_resolves_every_verb() {
        let program = sample();
        let text = "\
# a comment
set-local p mod=g use=x

add-call main p args=g
add-call main p args=7   # by-value constant
remove-call 0
add-proc helper parent=main formals=a,b
remove-proc helper
rebind 0 0 g
";
        let script = Script::parse(text).expect("parses");
        assert_eq!(script.len(), 7);
        // Each step resolves against the program state it applies to.
        let mut cur = program;
        for step in script.steps() {
            let edit = step.resolve(&cur).expect("resolves");
            let (next, _) = cur.apply_edit(&edit).expect("applies");
            cur = next;
        }
    }

    #[test]
    fn set_local_prefers_global_over_foreign_formal() {
        // `g` is global; `x` is p's formal. In a set-local on main, `g`
        // must resolve to the global even though p also sees it.
        let program = sample();
        let script = Script::parse("set-local main mod=g").expect("parses");
        let edit = script.steps()[0].resolve(&program).expect("resolves");
        match edit {
            Edit::SetLocalEffects { mods, .. } => {
                assert_eq!(mods.len(), 1);
                assert!(program.var(mods[0]).is_global());
            }
            other => panic!("wrong edit: {other:?}"),
        }
    }

    #[test]
    fn reports_unknown_names_with_line_numbers() {
        let program = sample();
        let script = Script::parse("\n\nset-local nosuch").expect("parses");
        let e = script.steps()[0]
            .resolve(&program)
            .expect_err("unknown proc");
        assert_eq!(e.line, 3);
        assert!(e.message.contains("nosuch"));

        let bad = Script::parse("frobnicate p").expect_err("unknown verb");
        assert_eq!(bad.line, 1);
    }

    #[test]
    fn rejects_malformed_lines() {
        assert!(Script::parse("set-local").is_err());
        assert!(Script::parse("remove-call notanumber").is_err());
        assert!(Script::parse("add-proc q").is_err()); // missing parent=
        assert!(Script::parse("rebind 0 0").is_err());
    }

    #[test]
    fn generator_is_deterministic_and_mostly_applicable() {
        let mut a = EditGen::new(42);
        let mut b = EditGen::new(42);
        let mut program = sample();
        let mut applied = 0;
        for _ in 0..64 {
            let ea = a.next_edit(&program);
            let eb = b.next_edit(&program);
            assert_eq!(
                format!("{ea:?}"),
                format!("{eb:?}"),
                "same seed, same script"
            );
            if let Ok((next, _)) = program.apply_edit(&ea) {
                program = next;
                applied += 1;
            }
        }
        // Validity is best-effort, but the generator must not be junk.
        assert!(applied >= 32, "only {applied}/64 edits applied");
    }
}
