//! Random client-style Retreet sources, shared by the integration tests:
//! a seed renders one program the way a client might write it — random
//! whitespace and `//` comments, the `n.l` and `n.c0` spellings, `arity K;`
//! headers, any `Loc` parameter name, redundant parentheses and brace
//! groups, both parallel forms, the comparisons the parser desugars, and
//! optionally the paper's leading nil guard.

/// A splitmix64 stream: one seed renders one program.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    fn below(&mut self, bound: usize) -> usize {
        (self.next() % bound as u64) as usize
    }

    fn chance(&mut self, percent: usize) -> bool {
        self.below(100) < percent
    }

    fn pick<'a>(&mut self, items: &[&'a str]) -> &'a str {
        items[self.below(items.len())]
    }
}

const LOCALS: [&str; 4] = ["a", "b", "x", "y"];
const FIELDS: [&str; 3] = ["v", "s", "w"];
const FUNCS: [&str; 3] = ["Main", "F", "G"];

/// Renders one random program as a token stream, then joins the tokens
/// with random whitespace and comments.
struct Writer {
    rng: Rng,
    tokens: Vec<String>,
    arity: u8,
    indexed: bool,
    loc: &'static str,
    params: Vec<&'static str>,
    /// Percent of functions that open with the nil guard
    /// `if (n == nil) { return c…; }`.
    nil_guard: usize,
    /// The program's signatures when `nil_guard > 0`.
    guards: Option<Guards>,
}

/// With nil guards, every function's signature is fixed before any body
/// is written, so that most programs validate: one return arity for all
/// functions, and each call passes its callee's integer arguments and binds
/// what it returns.  An unguarded function calls only guarded ones, so no
/// call chain recurses on nil without bound.
struct Guards {
    /// The return arity of every function.
    returns: usize,
    /// Per defined function (a prefix of `FUNCS`): whether it opens with a
    /// guard, and its number of integer parameters.
    funcs: Vec<(bool, usize)>,
    /// Whether the function being written opens with a guard.
    current: bool,
}

impl Writer {
    fn token(&mut self, token: impl Into<String>) {
        self.tokens.push(token.into());
    }

    fn program(&mut self) {
        if self.arity != 2 || self.rng.chance(15) {
            let arity = self.arity.to_string();
            for token in ["arity", &arity, ";"] {
                self.token(token);
            }
        }
        let count = 1 + self.rng.below(FUNCS.len());
        if self.nil_guard > 0 {
            let returns = 1 + self.rng.below(2);
            let funcs = (0..count)
                .map(|_| (self.rng.chance(self.nil_guard), self.rng.below(3)))
                .collect();
            self.guards = Some(Guards {
                returns,
                funcs,
                current: false,
            });
        }
        for index in 0..count {
            self.function(index);
        }
    }

    fn function(&mut self, index: usize) {
        self.loc = self.rng.pick(&["n", "n", "m", "node", "t"]);
        let (guarded, params) = match &mut self.guards {
            Some(guards) => {
                let (guarded, params) = guards.funcs[index];
                guards.current = guarded;
                (guarded, params)
            }
            None => (false, self.rng.below(3)),
        };
        self.params = ["k", "d"][..params].to_vec();
        self.token("fn");
        self.token(FUNCS[index]);
        self.token("(");
        self.token(self.loc);
        for param in self.params.clone() {
            self.token(",");
            self.token(param);
        }
        self.token(")");
        self.braced(|w| {
            if guarded {
                w.guard();
            } else {
                w.statements(3);
            }
        });
    }

    /// `if (n == nil) { return c…; }`, with the rest of the body in its
    /// `else` branch or after it.  One guard in five assigns before it
    /// returns, which leaves the call on nil to the function's frame.
    fn guard(&mut self) {
        self.token("if");
        self.token("(");
        self.token(self.loc);
        self.token("==");
        self.token("nil");
        self.token(")");
        self.braced(|w| {
            if w.rng.chance(20) {
                let choice = w.rng.below(2);
                w.simple(choice);
            }
            w.token("return");
            let returns = w.guards.as_ref().map_or(0, |guards| guards.returns);
            for i in 0..returns {
                if i > 0 {
                    w.token(",");
                }
                let value = w.rng.below(100).to_string();
                w.token(value);
            }
            w.token(";");
        });
        if self.rng.chance(50) {
            self.token("else");
            self.braced(|w| w.statements(3));
        } else {
            self.statements(3);
        }
    }

    /// The program's return arity with guards, else a random one.
    fn arity(&mut self, random: impl FnOnce(&mut Rng) -> usize) -> usize {
        match &self.guards {
            Some(guards) => guards.returns,
            None => random(&mut self.rng),
        }
    }

    fn braced(&mut self, body: impl FnOnce(&mut Self)) {
        self.token("{");
        body(self);
        self.token("}");
    }

    fn statements(&mut self, depth: usize) {
        for _ in 0..self.rng.below(5) {
            self.statement(depth);
        }
    }

    fn statement(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(4)
        } else {
            self.rng.below(9)
        };
        match choice {
            0 | 1 => self.simple(choice),
            2 => self.call(),
            3 => {
                self.token("return");
                for i in 0..self.arity(|rng| rng.below(3)) {
                    if i > 0 {
                        self.token(",");
                    }
                    self.aexpr(2);
                }
                self.token(";");
            }
            4 | 5 => self.conditional(depth),
            6 => {
                // `{ a || b || … }`, with empty branches allowed.
                self.braced(|w| {
                    for i in 0..2 + w.rng.below(2) {
                        if i > 0 {
                            w.token("||");
                        }
                        w.statements(depth - 1);
                    }
                });
            }
            7 => {
                self.token("par");
                self.braced(|w| w.statements(depth - 1));
            }
            _ => self.braced(|w| w.statements(depth - 1)),
        }
    }

    /// A variable (`choice` 0) or field (1) assignment.
    fn simple(&mut self, choice: usize) {
        if choice == 0 {
            let var = self.rng.pick(&LOCALS);
            self.token(var);
        } else {
            self.field_target();
        }
        self.token("=");
        self.aexpr(2);
        self.token(";");
    }

    /// `r… = F(n.l, e…);`, or with guards a variable assignment when an
    /// unguarded function has no guarded function to call.
    fn call(&mut self) {
        let signature = match &self.guards {
            None => None,
            Some(guards) => {
                let callees: Vec<usize> = (0..guards.funcs.len())
                    .filter(|&i| guards.current || guards.funcs[i].0)
                    .collect();
                if callees.is_empty() {
                    return self.simple(0);
                }
                let callee = callees[self.rng.below(callees.len())];
                Some((FUNCS[callee], guards.funcs[callee].1))
            }
        };
        for i in 0..self.arity(|rng| 1 + rng.below(2)) {
            if i > 0 {
                self.token(",");
            }
            let result = self.rng.pick(&LOCALS);
            self.token(result);
        }
        self.token("=");
        let callee = match signature {
            Some((callee, _)) => callee,
            None => self.rng.pick(&FUNCS),
        };
        self.token(callee);
        self.token("(");
        self.node(true);
        let args = match signature {
            Some((_, args)) => args,
            None => self.rng.below(3),
        };
        for _ in 0..args {
            self.token(",");
            self.aexpr(1);
        }
        self.token(")");
        self.token(";");
    }

    fn conditional(&mut self, depth: usize) {
        self.token("if");
        self.token("(");
        self.cond(2);
        self.token(")");
        self.braced(|w| w.statements(depth - 1));
        match self.rng.below(3) {
            0 => {}
            2 if depth > 1 => {
                self.token("else");
                self.conditional(depth - 1);
            }
            _ => {
                self.token("else");
                self.braced(|w| w.statements(depth - 1));
            }
        }
    }

    /// `n`, or (with `children`) sometimes a child `n.l` / `n.c2`.
    fn node(&mut self, children: bool) {
        self.token(self.loc);
        if children && self.rng.chance(60) {
            let axis = self.rng.below(self.arity as usize);
            let spelled = match axis {
                0 if !self.indexed => String::from("l"),
                1 if !self.indexed => String::from("r"),
                k => format!("c{k}"),
            };
            self.token(".");
            self.token(spelled);
        }
    }

    fn field_target(&mut self) {
        self.node(true);
        self.token(".");
        let field = self.rng.pick(&FIELDS);
        self.token(field);
    }

    fn aexpr(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(4)
        } else {
            self.rng.below(8)
        };
        match choice {
            0 => {
                let value = self.rng.below(100).to_string();
                self.token(value);
            }
            1 => {
                let var = self.rng.pick(&LOCALS);
                self.token(var);
            }
            2 if !self.params.is_empty() => {
                let param = self.params[self.rng.below(self.params.len())];
                self.token(param);
            }
            2 | 3 => self.field_target(),
            4 => {
                self.token("-");
                self.aexpr(depth - 1);
            }
            5 => {
                self.token("(");
                self.aexpr(depth - 1);
                self.token(")");
            }
            _ => {
                self.aexpr(depth - 1);
                let op = self.rng.pick(&["+", "-"]);
                self.token(op);
                self.aexpr(depth - 1);
            }
        }
    }

    fn cond(&mut self, depth: usize) {
        let choice = if depth == 0 {
            self.rng.below(3)
        } else {
            self.rng.below(6)
        };
        match choice {
            0 => {
                self.node(true);
                let op = self.rng.pick(&["==", "!="]);
                self.token(op);
                self.token("nil");
            }
            1 => {
                self.aexpr(1);
                let op = self.rng.pick(&["<", "<=", ">", ">=", "==", "!="]);
                self.token(op);
                self.aexpr(1);
            }
            2 => self.token("true"),
            3 => {
                self.token("!");
                self.cond(depth - 1);
            }
            4 => {
                self.token("(");
                self.cond(depth - 1);
                self.token(")");
            }
            _ => {
                self.cond(depth - 1);
                self.token("&&");
                self.cond(depth - 1);
            }
        }
    }

    /// The tokens joined by random whitespace and comments; two word tokens
    /// always get at least one space.
    fn render(mut self) -> String {
        const GAPS: [&str; 7] = [" ", " ", "\n", "\t", "  ", "\n        ", " // note\n"];
        let word = |token: &str| token.starts_with(|c: char| c.is_ascii_alphanumeric() || c == '_');
        let tokens = std::mem::take(&mut self.tokens);
        let mut source = String::new();
        if self.rng.chance(20) {
            source.push_str("// a client's program\n");
        }
        for (i, token) in tokens.iter().enumerate() {
            let joined = i == 0 || !(word(&tokens[i - 1]) && word(token));
            if !(joined && self.rng.chance(40)) {
                source.push_str(GAPS[self.rng.below(GAPS.len())]);
            }
            source.push_str(token);
        }
        source.push('\n');
        source
    }
}

/// The source a client might send for `seed`, opening `nil_guard` percent
/// of its functions with a nil guard (see [`Guards`] for what else guards
/// fix; with `nil_guard == 0` the writer draws exactly as it always has).
pub fn client_source(seed: u64, nil_guard: usize) -> String {
    let mut rng = Rng(seed);
    let arity = if rng.chance(70) {
        2
    } else {
        2 + rng.below(3) as u8
    };
    let indexed = rng.chance(40);
    let mut writer = Writer {
        rng,
        tokens: Vec::new(),
        arity,
        indexed,
        loc: "n",
        params: Vec::new(),
        nil_guard,
        guards: None,
    };
    writer.program();
    writer.render()
}
