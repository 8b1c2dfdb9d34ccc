//! The parser as it was before token moves, precedence climbing and
//! `MAX_EXPR_DEPTH`: the oracle `parse` must match on every input whose
//! expressions stay within that limit.

use super::lexer::lex;
use crate::ast::*;
use crate::token::{Keyword, Punct, Span, Spanned, Token};
use crate::ParseVerilogError;

pub(super) fn parse(source: &str) -> Result<SourceUnit, ParseVerilogError> {
    let tokens = lex(source)?;
    Parser::new(tokens).source_unit()
}

struct Parser {
    toks: Vec<Spanned>,
    pos: usize,
}

impl Parser {
    fn new(toks: Vec<Spanned>) -> Self {
        Self { toks, pos: 0 }
    }

    fn span(&self) -> Span {
        self.toks
            .get(self.pos)
            .or_else(|| self.toks.last())
            .map_or(Span::default(), |s| s.span)
    }

    fn peek(&self) -> Option<&Token> {
        self.toks.get(self.pos).map(|s| &s.token)
    }

    fn bump(&mut self) -> Option<Token> {
        let t = self.toks.get(self.pos).map(|s| s.token.clone());
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn at_punct(&self, p: Punct) -> bool {
        matches!(self.peek(), Some(Token::Punct(q)) if *q == p)
    }

    fn at_kw(&self, k: Keyword) -> bool {
        matches!(self.peek(), Some(Token::Kw(q)) if *q == k)
    }

    fn eat_punct(&mut self, p: Punct) -> bool {
        if self.at_punct(p) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, k: Keyword) -> bool {
        if self.at_kw(k) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_punct(&mut self, p: Punct) -> Result<(), ParseVerilogError> {
        if self.eat_punct(p) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("'{p}'")))
        }
    }

    fn expect_kw(&mut self, k: Keyword) -> Result<(), ParseVerilogError> {
        if self.eat_kw(k) {
            Ok(())
        } else {
            Err(self.unexpected(&format!("keyword {k:?}")))
        }
    }

    fn expect_ident(&mut self) -> Result<String, ParseVerilogError> {
        match self.peek() {
            Some(Token::Ident(_)) => match self.bump() {
                Some(Token::Ident(n)) => Ok(n),
                // g4check: allow(panic-path): peek just confirmed an identifier is next
                _ => unreachable!("peeked identifier"),
            },
            _ => Err(self.unexpected("identifier")),
        }
    }

    fn unexpected(&self, wanted: &str) -> ParseVerilogError {
        let got = match self.peek() {
            Some(t) => format!("{t:?}"),
            None => "end of input".to_string(),
        };
        ParseVerilogError::at(self.span(), format!("expected {wanted}, found {got}"))
    }

    // ---------------------------------------------------------- top level

    fn source_unit(mut self) -> Result<SourceUnit, ParseVerilogError> {
        let mut modules = Vec::new();
        while self.peek().is_some() {
            if self.at_kw(Keyword::Module) {
                modules.push(self.module()?);
            } else {
                return Err(self.unexpected("'module'"));
            }
        }
        Ok(SourceUnit { modules })
    }

    fn module(&mut self) -> Result<Module, ParseVerilogError> {
        self.expect_kw(Keyword::Module)?;
        let name = self.expect_ident()?;
        let mut module = Module {
            name,
            port_order: Vec::new(),
            ports: Vec::new(),
            params: Vec::new(),
            items: Vec::new(),
        };
        // #(parameter N = 1, ...)
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            loop {
                self.eat_kw(Keyword::Parameter);
                // optional range on parameter — skip
                self.skip_optional_range()?;
                let pname = self.expect_ident()?;
                self.expect_punct(Punct::Assign)?;
                let value = self.expr()?;
                module.params.push((pname, value));
                if !self.eat_punct(Punct::Comma) {
                    break;
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        // port list
        if self.eat_punct(Punct::LParen) {
            if !self.at_punct(Punct::RParen) {
                self.port_list(&mut module)?;
            }
            self.expect_punct(Punct::RParen)?;
        }
        self.expect_punct(Punct::Semi)?;
        while !self.at_kw(Keyword::Endmodule) {
            if self.peek().is_none() {
                return Err(self.unexpected("'endmodule'"));
            }
            self.item(&mut module)?;
        }
        self.expect_kw(Keyword::Endmodule)?;
        Ok(module)
    }

    fn skip_optional_range(&mut self) -> Result<(), ParseVerilogError> {
        if self.at_punct(Punct::LBracket) {
            let _ = self.range()?;
        }
        Ok(())
    }

    fn range(&mut self) -> Result<Range, ParseVerilogError> {
        self.expect_punct(Punct::LBracket)?;
        let msb = self.expr()?;
        self.expect_punct(Punct::Colon)?;
        let lsb = self.expr()?;
        self.expect_punct(Punct::RBracket)?;
        Ok(Range { msb, lsb })
    }

    fn port_list(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        // Either ANSI (`input wire [3:0] a, output reg b`) or non-ANSI
        // (`a, b, c`). Direction/type "stick" across commas in ANSI style.
        let mut cur_dir: Option<PortDir> = None;
        let mut cur_reg = false;
        let mut cur_range: Option<Range> = None;
        loop {
            let dir = match self.peek() {
                Some(Token::Kw(Keyword::Input)) => Some(PortDir::Input),
                Some(Token::Kw(Keyword::Output)) => Some(PortDir::Output),
                Some(Token::Kw(Keyword::Inout)) => Some(PortDir::Inout),
                _ => None,
            };
            if let Some(d) = dir {
                self.bump();
                cur_dir = Some(d);
                cur_reg = false;
                cur_range = None;
                if self.eat_kw(Keyword::Wire) {
                    // plain wire
                } else if self.eat_kw(Keyword::Reg) {
                    cur_reg = true;
                }
                if self.at_punct(Punct::LBracket) {
                    cur_range = Some(self.range()?);
                }
            }
            let name = self.expect_ident()?;
            module.port_order.push(name.clone());
            if let Some(d) = cur_dir {
                module.ports.push(Port {
                    name,
                    dir: d,
                    is_reg: cur_reg,
                    range: cur_range.clone(),
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        Ok(())
    }

    // ---------------------------------------------------------- items

    fn item(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        match self.peek() {
            Some(Token::Kw(Keyword::Input)) => self.non_ansi_port(module, PortDir::Input),
            Some(Token::Kw(Keyword::Output)) => self.non_ansi_port(module, PortDir::Output),
            Some(Token::Kw(Keyword::Inout)) => self.non_ansi_port(module, PortDir::Inout),
            Some(Token::Kw(Keyword::Wire)) => self.net_decl(module, NetKind::Wire),
            Some(Token::Kw(Keyword::Reg)) => self.net_decl(module, NetKind::Reg),
            Some(Token::Kw(Keyword::Integer)) => self.net_decl(module, NetKind::Integer),
            Some(Token::Kw(Keyword::Parameter)) | Some(Token::Kw(Keyword::Localparam)) => {
                self.bump();
                self.skip_optional_range()?;
                loop {
                    let name = self.expect_ident()?;
                    self.expect_punct(Punct::Assign)?;
                    let value = self.expr()?;
                    module.items.push(Item::Param { name, value });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(())
            }
            Some(Token::Kw(Keyword::Assign)) => {
                self.bump();
                loop {
                    let lhs = self.lvalue()?;
                    self.expect_punct(Punct::Assign)?;
                    let rhs = self.expr()?;
                    module.items.push(Item::Assign { lhs, rhs });
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(())
            }
            Some(Token::Kw(Keyword::Always)) => {
                self.bump();
                let sensitivity = if self.eat_punct(Punct::At) {
                    self.sensitivity_list()?
                } else {
                    Vec::new()
                };
                let body = self.stmt()?;
                module.items.push(Item::Always { sensitivity, body });
                Ok(())
            }
            Some(Token::Kw(Keyword::Initial)) => {
                self.bump();
                let body = self.stmt()?;
                module.items.push(Item::Initial(body));
                Ok(())
            }
            Some(Token::Kw(k)) if k.is_gate() && *k != Keyword::Or => {
                let kind = match k {
                    Keyword::GateAnd => GateKind::And,
                    Keyword::GateNand => GateKind::Nand,
                    Keyword::GateNor => GateKind::Nor,
                    Keyword::GateXor => GateKind::Xor,
                    Keyword::GateXnor => GateKind::Xnor,
                    Keyword::GateNot => GateKind::Not,
                    Keyword::GateBuf => GateKind::Buf,
                    // g4check: allow(panic-path): the match arm admits only gate keywords
                    _ => unreachable!("matched gate keyword"),
                };
                self.bump();
                self.gate_instances(module, kind)
            }
            Some(Token::Kw(Keyword::Or)) => {
                // `or` as a gate primitive at item level
                self.bump();
                self.gate_instances(module, GateKind::Or)
            }
            Some(Token::Ident(_)) => self.module_instance(module),
            Some(Token::Punct(Punct::Semi)) => {
                self.bump();
                Ok(())
            }
            _ => Err(self.unexpected("module item")),
        }
    }

    fn non_ansi_port(
        &mut self,
        module: &mut Module,
        dir: PortDir,
    ) -> Result<(), ParseVerilogError> {
        self.bump(); // direction keyword
        let mut is_reg = false;
        if self.eat_kw(Keyword::Wire) {
            // nothing
        } else if self.eat_kw(Keyword::Reg) {
            is_reg = true;
        }
        let range = if self.at_punct(Punct::LBracket) {
            Some(self.range()?)
        } else {
            None
        };
        loop {
            let name = self.expect_ident()?;
            // update or insert the port entry
            if let Some(p) = module.ports.iter_mut().find(|p| p.name == name) {
                p.dir = dir;
                p.is_reg |= is_reg;
                p.range = range.clone();
            } else {
                module.ports.push(Port {
                    name: name.clone(),
                    dir,
                    is_reg,
                    range: range.clone(),
                });
            }
            if !module.port_order.contains(&name) {
                module.port_order.push(name);
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn net_decl(&mut self, module: &mut Module, kind: NetKind) -> Result<(), ParseVerilogError> {
        self.bump(); // wire/reg/integer
        let range = if self.at_punct(Punct::LBracket) {
            Some(self.range()?)
        } else {
            None
        };
        loop {
            let name = self.expect_ident()?;
            // optional memory dimension `[0:255]` — parsed and dropped
            if self.at_punct(Punct::LBracket) {
                let _ = self.range()?;
            }
            let init = if self.eat_punct(Punct::Assign) {
                Some(self.expr()?)
            } else {
                None
            };
            // `output reg` already declared as port: mark reg-ness
            if let Some(p) = module.ports.iter_mut().find(|p| p.name == name) {
                p.is_reg |= kind == NetKind::Reg;
                if p.range.is_none() {
                    p.range = range.clone();
                }
                if let Some(init) = init {
                    module.items.push(Item::Assign {
                        lhs: Expr::ident(&p.name),
                        rhs: init,
                    });
                }
            } else {
                module.items.push(Item::Decl {
                    kind,
                    name,
                    range: range.clone(),
                    init,
                });
            }
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn gate_instances(
        &mut self,
        module: &mut Module,
        kind: GateKind,
    ) -> Result<(), ParseVerilogError> {
        loop {
            let name = if let Some(Token::Ident(_)) = self.peek() {
                Some(self.expect_ident()?)
            } else {
                None
            };
            self.expect_punct(Punct::LParen)?;
            let mut conns = Vec::new();
            if !self.at_punct(Punct::RParen) {
                loop {
                    conns.push(self.expr()?);
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            module
                .items
                .push(Item::Gate(GateInstance { kind, name, conns }));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn module_instance(&mut self, module: &mut Module) -> Result<(), ParseVerilogError> {
        let mod_name = self.expect_ident()?;
        let mut param_overrides = Vec::new();
        if self.eat_punct(Punct::Hash) {
            self.expect_punct(Punct::LParen)?;
            if !self.at_punct(Punct::RParen) {
                loop {
                    if self.eat_punct(Punct::Dot) {
                        let p = self.expect_ident()?;
                        self.expect_punct(Punct::LParen)?;
                        let e = self.expr()?;
                        self.expect_punct(Punct::RParen)?;
                        param_overrides.push((Some(p), e));
                    } else {
                        param_overrides.push((None, self.expr()?));
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
        }
        loop {
            let inst_name = self.expect_ident()?;
            self.expect_punct(Punct::LParen)?;
            let mut conns = Vec::new();
            if !self.at_punct(Punct::RParen) {
                loop {
                    if self.eat_punct(Punct::Dot) {
                        let p = self.expect_ident()?;
                        self.expect_punct(Punct::LParen)?;
                        let e = if self.at_punct(Punct::RParen) {
                            None
                        } else {
                            Some(self.expr()?)
                        };
                        self.expect_punct(Punct::RParen)?;
                        conns.push((Some(p), e));
                    } else {
                        conns.push((None, Some(self.expr()?)));
                    }
                    if !self.eat_punct(Punct::Comma) {
                        break;
                    }
                }
            }
            self.expect_punct(Punct::RParen)?;
            module.items.push(Item::Instance(ModuleInstance {
                module: mod_name.clone(),
                name: inst_name,
                param_overrides: param_overrides.clone(),
                conns,
            }));
            if !self.eat_punct(Punct::Comma) {
                break;
            }
        }
        self.expect_punct(Punct::Semi)?;
        Ok(())
    }

    fn sensitivity_list(&mut self) -> Result<Vec<SensItem>, ParseVerilogError> {
        // @* or @(*) or @(list)
        if self.eat_punct(Punct::Star) {
            return Ok(vec![SensItem::Star]);
        }
        self.expect_punct(Punct::LParen)?;
        if self.eat_punct(Punct::Star) {
            self.expect_punct(Punct::RParen)?;
            return Ok(vec![SensItem::Star]);
        }
        let mut items = Vec::new();
        loop {
            let item = if self.eat_kw(Keyword::Posedge) {
                SensItem::Posedge(self.expect_ident()?)
            } else if self.eat_kw(Keyword::Negedge) {
                SensItem::Negedge(self.expect_ident()?)
            } else {
                SensItem::Level(self.expect_ident()?)
            };
            items.push(item);
            if self.eat_punct(Punct::Comma) || self.eat_kw(Keyword::Or) {
                continue;
            }
            break;
        }
        self.expect_punct(Punct::RParen)?;
        Ok(items)
    }

    // ---------------------------------------------------------- statements

    fn stmt(&mut self) -> Result<Stmt, ParseVerilogError> {
        match self.peek() {
            Some(Token::Kw(Keyword::Begin)) => {
                self.bump();
                // optional block label `: name`
                if self.eat_punct(Punct::Colon) {
                    let _ = self.expect_ident()?;
                }
                let mut stmts = Vec::new();
                while !self.at_kw(Keyword::End) {
                    if self.peek().is_none() {
                        return Err(self.unexpected("'end'"));
                    }
                    stmts.push(self.stmt()?);
                }
                self.expect_kw(Keyword::End)?;
                Ok(Stmt::Block(stmts))
            }
            Some(Token::Kw(Keyword::If)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let then_s = Box::new(self.stmt()?);
                let else_s = if self.eat_kw(Keyword::Else) {
                    Some(Box::new(self.stmt()?))
                } else {
                    None
                };
                Ok(Stmt::If {
                    cond,
                    then_s,
                    else_s,
                })
            }
            Some(Token::Kw(Keyword::Case))
            | Some(Token::Kw(Keyword::Casex))
            | Some(Token::Kw(Keyword::Casez)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let subject = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let mut arms = Vec::new();
                while !self.at_kw(Keyword::Endcase) {
                    if self.peek().is_none() {
                        return Err(self.unexpected("'endcase'"));
                    }
                    if self.eat_kw(Keyword::Default) {
                        self.eat_punct(Punct::Colon);
                        let body = self.stmt()?;
                        arms.push((Vec::new(), body));
                    } else {
                        let mut labels = vec![self.expr()?];
                        while self.eat_punct(Punct::Comma) {
                            labels.push(self.expr()?);
                        }
                        self.expect_punct(Punct::Colon)?;
                        let body = self.stmt()?;
                        arms.push((labels, body));
                    }
                }
                self.expect_kw(Keyword::Endcase)?;
                Ok(Stmt::Case { subject, arms })
            }
            Some(Token::Kw(Keyword::For)) => {
                self.bump();
                self.expect_punct(Punct::LParen)?;
                let var = self.expect_ident()?;
                self.expect_punct(Punct::Assign)?;
                let init = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                let cond = self.expr()?;
                self.expect_punct(Punct::Semi)?;
                let var2 = self.expect_ident()?;
                if var2 != var {
                    return Err(ParseVerilogError::at(
                        self.span(),
                        format!("for-loop step must assign '{var}'"),
                    ));
                }
                self.expect_punct(Punct::Assign)?;
                let step = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                let body = Box::new(self.stmt()?);
                Ok(Stmt::For {
                    var,
                    init,
                    cond,
                    step,
                    body,
                })
            }
            Some(Token::Punct(Punct::Semi)) => {
                self.bump();
                Ok(Stmt::Null)
            }
            Some(Token::Punct(Punct::Hash)) => {
                // delay control `#10 stmt` — skip the delay
                self.bump();
                match self.peek() {
                    Some(Token::Number { .. }) => {
                        self.bump();
                    }
                    Some(Token::Punct(Punct::LParen)) => {
                        self.bump();
                        let _ = self.expr()?;
                        self.expect_punct(Punct::RParen)?;
                    }
                    _ => {}
                }
                self.stmt()
            }
            Some(Token::Ident(name)) if name.starts_with('$') => {
                // system task call — consumed and ignored
                self.bump();
                if self.eat_punct(Punct::LParen) {
                    let mut depth = 1u32;
                    while depth > 0 {
                        match self.bump() {
                            Some(Token::Punct(Punct::LParen)) => depth += 1,
                            Some(Token::Punct(Punct::RParen)) => depth -= 1,
                            Some(_) => {}
                            None => return Err(self.unexpected("')'")),
                        }
                    }
                }
                self.expect_punct(Punct::Semi)?;
                Ok(Stmt::Null)
            }
            _ => {
                let lhs = self.lvalue()?;
                if self.eat_punct(Punct::LtEq) {
                    let rhs = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::NonBlocking { lhs, rhs })
                } else if self.eat_punct(Punct::Assign) {
                    let rhs = self.expr()?;
                    self.expect_punct(Punct::Semi)?;
                    Ok(Stmt::Blocking { lhs, rhs })
                } else {
                    Err(self.unexpected("'=' or '<='"))
                }
            }
        }
    }

    fn lvalue(&mut self) -> Result<Expr, ParseVerilogError> {
        if self.at_punct(Punct::LBrace) {
            self.bump();
            let mut parts = vec![self.lvalue()?];
            while self.eat_punct(Punct::Comma) {
                parts.push(self.lvalue()?);
            }
            self.expect_punct(Punct::RBrace)?;
            return Ok(Expr::Concat(parts));
        }
        let name = self.expect_ident()?;
        let mut e = Expr::ident(name);
        while self.at_punct(Punct::LBracket) {
            e = self.postfix_select(e)?;
        }
        Ok(e)
    }

    // ---------------------------------------------------------- expressions

    fn expr(&mut self) -> Result<Expr, ParseVerilogError> {
        self.ternary()
    }

    fn ternary(&mut self) -> Result<Expr, ParseVerilogError> {
        let cond = self.logical_or()?;
        if self.eat_punct(Punct::Question) {
            let then_e = self.expr()?;
            self.expect_punct(Punct::Colon)?;
            let else_e = self.expr()?;
            Ok(Expr::Ternary {
                cond: Box::new(cond),
                then_e: Box::new(then_e),
                else_e: Box::new(else_e),
            })
        } else {
            Ok(cond)
        }
    }

    fn binary_level(
        &mut self,
        next: impl Fn(&mut Self) -> Result<Expr, ParseVerilogError>,
        ops: &[(Punct, BinaryOp)],
    ) -> Result<Expr, ParseVerilogError> {
        let mut lhs = next(self)?;
        'outer: loop {
            for &(p, op) in ops {
                if self.at_punct(p) {
                    self.bump();
                    let rhs = next(self)?;
                    lhs = Expr::Binary {
                        op,
                        lhs: Box::new(lhs),
                        rhs: Box::new(rhs),
                    };
                    continue 'outer;
                }
            }
            break;
        }
        Ok(lhs)
    }

    fn logical_or(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(Self::logical_and, &[(Punct::OrOr, BinaryOp::LogicalOr)])
    }

    fn logical_and(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(Self::bit_or, &[(Punct::AndAnd, BinaryOp::LogicalAnd)])
    }

    fn bit_or(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(Self::bit_xor, &[(Punct::Or, BinaryOp::Or)])
    }

    fn bit_xor(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::bit_and,
            &[(Punct::Xor, BinaryOp::Xor), (Punct::Xnor, BinaryOp::Xnor)],
        )
    }

    fn bit_and(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(Self::equality, &[(Punct::And, BinaryOp::And)])
    }

    fn equality(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::relational,
            &[
                (Punct::EqEq, BinaryOp::Eq),
                (Punct::NotEq, BinaryOp::Neq),
                (Punct::CaseEq, BinaryOp::CaseEq),
                (Punct::CaseNotEq, BinaryOp::CaseNeq),
            ],
        )
    }

    fn relational(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::shift,
            &[
                (Punct::Lt, BinaryOp::Lt),
                (Punct::Gt, BinaryOp::Gt),
                (Punct::LtEq, BinaryOp::Le),
                (Punct::GtEq, BinaryOp::Ge),
            ],
        )
    }

    fn shift(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::additive,
            &[
                (Punct::Shl, BinaryOp::Shl),
                (Punct::Shr, BinaryOp::Shr),
                (Punct::AShr, BinaryOp::AShr),
            ],
        )
    }

    fn additive(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::multiplicative,
            &[(Punct::Plus, BinaryOp::Add), (Punct::Minus, BinaryOp::Sub)],
        )
    }

    fn multiplicative(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(
            Self::power,
            &[
                (Punct::Star, BinaryOp::Mul),
                (Punct::Slash, BinaryOp::Div),
                (Punct::Percent, BinaryOp::Mod),
            ],
        )
    }

    fn power(&mut self) -> Result<Expr, ParseVerilogError> {
        self.binary_level(Self::unary, &[(Punct::Star2, BinaryOp::Pow)])
    }

    fn unary(&mut self) -> Result<Expr, ParseVerilogError> {
        let op = match self.peek() {
            Some(Token::Punct(Punct::Not)) => Some(UnaryOp::Not),
            Some(Token::Punct(Punct::Tilde)) => Some(UnaryOp::BitNot),
            Some(Token::Punct(Punct::Plus)) => Some(UnaryOp::Plus),
            Some(Token::Punct(Punct::Minus)) => Some(UnaryOp::Minus),
            Some(Token::Punct(Punct::And)) => Some(UnaryOp::ReduceAnd),
            Some(Token::Punct(Punct::Or)) => Some(UnaryOp::ReduceOr),
            Some(Token::Punct(Punct::Xor)) => Some(UnaryOp::ReduceXor),
            Some(Token::Punct(Punct::Nand)) => Some(UnaryOp::ReduceNand),
            Some(Token::Punct(Punct::Nor)) => Some(UnaryOp::ReduceNor),
            Some(Token::Punct(Punct::Xnor)) => Some(UnaryOp::ReduceXnor),
            _ => None,
        };
        if let Some(op) = op {
            self.bump();
            let arg = self.unary()?;
            Ok(Expr::Unary {
                op,
                arg: Box::new(arg),
            })
        } else {
            self.primary()
        }
    }

    fn primary(&mut self) -> Result<Expr, ParseVerilogError> {
        match self.peek().cloned() {
            Some(Token::Number { width, value, .. }) => {
                self.bump();
                Ok(Expr::Number { width, value })
            }
            Some(Token::Str(s)) => {
                self.bump();
                Ok(Expr::Str(s))
            }
            Some(Token::Ident(name)) => {
                self.bump();
                if self.at_punct(Punct::LParen) {
                    self.bump();
                    let mut args = Vec::new();
                    if !self.at_punct(Punct::RParen) {
                        loop {
                            args.push(self.expr()?);
                            if !self.eat_punct(Punct::Comma) {
                                break;
                            }
                        }
                    }
                    self.expect_punct(Punct::RParen)?;
                    return Ok(Expr::Call { name, args });
                }
                let mut e = Expr::Ident(name);
                while self.at_punct(Punct::LBracket) {
                    e = self.postfix_select(e)?;
                }
                Ok(e)
            }
            Some(Token::Punct(Punct::LParen)) => {
                self.bump();
                let e = self.expr()?;
                self.expect_punct(Punct::RParen)?;
                Ok(e)
            }
            Some(Token::Punct(Punct::LBrace)) => {
                self.bump();
                let first = self.expr()?;
                if self.at_punct(Punct::LBrace) {
                    // repeat {n{expr, ...}}
                    self.bump();
                    let mut parts = vec![self.expr()?];
                    while self.eat_punct(Punct::Comma) {
                        parts.push(self.expr()?);
                    }
                    self.expect_punct(Punct::RBrace)?;
                    self.expect_punct(Punct::RBrace)?;
                    let body = if parts.len() == 1 {
                        // g4check: allow(unwrap-in-lib): pop of a vec whose length the branch just checked is 1
                        parts.pop().expect("one part")
                    } else {
                        Expr::Concat(parts)
                    };
                    Ok(Expr::Repeat {
                        count: Box::new(first),
                        body: Box::new(body),
                    })
                } else {
                    let mut parts = vec![first];
                    while self.eat_punct(Punct::Comma) {
                        parts.push(self.expr()?);
                    }
                    self.expect_punct(Punct::RBrace)?;
                    Ok(Expr::Concat(parts))
                }
            }
            _ => Err(self.unexpected("expression")),
        }
    }

    fn postfix_select(&mut self, base: Expr) -> Result<Expr, ParseVerilogError> {
        self.expect_punct(Punct::LBracket)?;
        let first = self.expr()?;
        if self.eat_punct(Punct::Colon) {
            let lsb = self.expr()?;
            self.expect_punct(Punct::RBracket)?;
            Ok(Expr::PartSelect {
                base: Box::new(base),
                msb: Box::new(first),
                lsb: Box::new(lsb),
            })
        } else {
            self.expect_punct(Punct::RBracket)?;
            Ok(Expr::BitSelect {
                base: Box::new(base),
                index: Box::new(first),
            })
        }
    }
}
