//! Recursive-descent SQL parser.
//!
//! Grammar (the GridPocket dialect from Table I, plus the usual extras):
//!
//! ```text
//! query      := SELECT [DISTINCT] item (',' item)* FROM ident
//!               [WHERE expr] [GROUP BY expr (',' expr)*] [HAVING expr]
//!               [ORDER BY order (',' order)*] [LIMIT int] [';']
//! item       := '*' | expr [[AS] ident]
//! order      := expr [ASC|DESC]
//! expr       := or_expr
//! or_expr    := and_expr (OR and_expr)*
//! and_expr   := not_expr (AND not_expr)*
//! not_expr   := NOT not_expr | predicate
//! predicate  := additive [cmp additive | [NOT] LIKE str | [NOT] IN (...) |
//!               IS [NOT] NULL]
//! additive   := multiplicative (('+'|'-') multiplicative)*
//! multiplicative := unary (('*'|'/'|'%') unary)*
//! unary      := '-' unary | primary
//! primary    := literal | ident | func '(' args ')' | '(' expr ')'
//! ```

use crate::ast::{AggFunc, BinOp, Expr, OrderItem, Query, SelectItem};
use crate::lexer::{tokenize, Symbol, Token};
use scoop_common::{Result, ScoopError};
use scoop_csv::Value;

/// Parse a single SELECT statement.
///
/// ```
/// let q = scoop_sql::parse(
///     "SELECT vid, sum(index) as total FROM largeMeter \
///      WHERE date LIKE '2015-01%' GROUP BY vid ORDER BY vid",
/// )
/// .unwrap();
/// assert_eq!(q.table, "largemeter");
/// assert!(q.is_aggregate());
/// ```
pub fn parse(sql: &str) -> Result<Query> {
    let tokens = tokenize(sql)?;
    let mut p = Parser { tokens, pos: 0 };
    let q = p.query()?;
    // Allow a trailing semicolon.
    if p.peek() == Some(&Token::Symbol(Symbol::Semicolon)) {
        p.pos += 1;
    }
    if p.pos != p.tokens.len() {
        return Err(ScoopError::Sql(format!(
            "unexpected trailing tokens starting at {:?}",
            p.peek()
        )));
    }
    Ok(q)
}

struct Parser {
    tokens: Vec<Token>,
    pos: usize,
}

/// Words that terminate an expression list.
const CLAUSE_KEYWORDS: &[&str] = &[
    "from", "where", "group", "having", "order", "limit", "asc", "desc", "by", "and", "or",
    "as",
];

impl Parser {
    fn peek(&self) -> Option<&Token> {
        self.tokens.get(self.pos)
    }

    fn next(&mut self) -> Option<Token> {
        let t = self.tokens.get(self.pos).cloned();
        if t.is_some() {
            self.pos += 1;
        }
        t
    }

    fn eat_kw(&mut self, kw: &str) -> bool {
        if self.peek().is_some_and(|t| t.is_kw(kw)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_kw(&mut self, kw: &str) -> Result<()> {
        if self.eat_kw(kw) {
            Ok(())
        } else {
            Err(ScoopError::Sql(format!(
                "expected {kw}, found {:?}",
                self.peek()
            )))
        }
    }

    fn eat_symbol(&mut self, s: Symbol) -> bool {
        if self.peek() == Some(&Token::Symbol(s)) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn expect_symbol(&mut self, s: Symbol) -> Result<()> {
        if self.eat_symbol(s) {
            Ok(())
        } else {
            Err(ScoopError::Sql(format!(
                "expected {s:?}, found {:?}",
                self.peek()
            )))
        }
    }

    fn ident(&mut self) -> Result<String> {
        match self.next() {
            Some(Token::Ident(s)) => Ok(s.to_ascii_lowercase()),
            other => Err(ScoopError::Sql(format!("expected identifier, found {other:?}"))),
        }
    }

    fn query(&mut self) -> Result<Query> {
        self.expect_kw("select")?;
        let distinct = self.eat_kw("distinct");
        let mut items = vec![self.select_item()?];
        while self.eat_symbol(Symbol::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw("from")?;
        let table = self.ident()?;
        let where_clause = if self.eat_kw("where") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut group_by = Vec::new();
        if self.eat_kw("group") {
            self.expect_kw("by")?;
            group_by.push(self.expr()?);
            while self.eat_symbol(Symbol::Comma) {
                group_by.push(self.expr()?);
            }
        }
        let having = if self.eat_kw("having") {
            Some(self.expr()?)
        } else {
            None
        };
        let mut order_by = Vec::new();
        if self.eat_kw("order") {
            self.expect_kw("by")?;
            loop {
                let expr = self.expr()?;
                let desc = if self.eat_kw("desc") {
                    true
                } else {
                    self.eat_kw("asc");
                    false
                };
                order_by.push(OrderItem { expr, desc });
                if !self.eat_symbol(Symbol::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw("limit") {
            match self.next() {
                Some(Token::Int(n)) if n >= 0 => Some(n as usize),
                other => {
                    return Err(ScoopError::Sql(format!(
                        "expected LIMIT count, found {other:?}"
                    )))
                }
            }
        } else {
            None
        };
        Ok(Query { distinct, items, table, where_clause, group_by, having, order_by, limit })
    }

    fn select_item(&mut self) -> Result<SelectItem> {
        if self.eat_symbol(Symbol::Star) {
            return Ok(SelectItem { expr: Expr::Star, alias: None });
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw("as") {
            Some(self.ident()?)
        } else {
            // Bare alias: an identifier that is not a clause keyword.
            match self.peek() {
                Some(Token::Ident(s))
                    if !CLAUSE_KEYWORDS.iter().any(|k| s.eq_ignore_ascii_case(k)) =>
                {
                    Some(self.ident()?)
                }
                _ => None,
            }
        };
        Ok(SelectItem { expr, alias })
    }

    fn expr(&mut self) -> Result<Expr> {
        self.or_expr()
    }

    fn or_expr(&mut self) -> Result<Expr> {
        let mut left = self.and_expr()?;
        while self.eat_kw("or") {
            let right = self.and_expr()?;
            left = Expr::Binary { op: BinOp::Or, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn and_expr(&mut self) -> Result<Expr> {
        let mut left = self.not_expr()?;
        while self.eat_kw("and") {
            let right = self.not_expr()?;
            left = Expr::Binary { op: BinOp::And, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn not_expr(&mut self) -> Result<Expr> {
        if self.eat_kw("not") {
            Ok(Expr::Not(Box::new(self.not_expr()?)))
        } else {
            self.predicate()
        }
    }

    fn predicate(&mut self) -> Result<Expr> {
        let left = self.additive()?;
        // Comparison operators.
        let cmp = match self.peek() {
            Some(Token::Symbol(Symbol::Eq)) => Some(BinOp::Eq),
            Some(Token::Symbol(Symbol::Ne)) => Some(BinOp::Ne),
            Some(Token::Symbol(Symbol::Lt)) => Some(BinOp::Lt),
            Some(Token::Symbol(Symbol::Le)) => Some(BinOp::Le),
            Some(Token::Symbol(Symbol::Gt)) => Some(BinOp::Gt),
            Some(Token::Symbol(Symbol::Ge)) => Some(BinOp::Ge),
            _ => None,
        };
        if let Some(op) = cmp {
            self.pos += 1;
            let right = self.additive()?;
            return Ok(Expr::Binary { op, left: Box::new(left), right: Box::new(right) });
        }
        // [NOT] LIKE / IN, IS [NOT] NULL.
        let negated = if self.peek().is_some_and(|t| t.is_kw("not")) {
            // Only treat as postfix NOT when followed by LIKE/IN.
            match self.tokens.get(self.pos + 1) {
                Some(t) if t.is_kw("like") || t.is_kw("in") => {
                    self.pos += 1;
                    true
                }
                _ => false,
            }
        } else {
            false
        };
        if self.eat_kw("like") {
            match self.next() {
                Some(Token::Str(pattern)) => {
                    return Ok(Expr::Like { expr: Box::new(left), pattern, negated })
                }
                other => {
                    return Err(ScoopError::Sql(format!(
                        "expected LIKE pattern string, found {other:?}"
                    )))
                }
            }
        }
        if self.eat_kw("in") {
            self.expect_symbol(Symbol::LParen)?;
            let mut list = vec![self.expr()?];
            while self.eat_symbol(Symbol::Comma) {
                list.push(self.expr()?);
            }
            self.expect_symbol(Symbol::RParen)?;
            return Ok(Expr::InList { expr: Box::new(left), list, negated });
        }
        if negated {
            return Err(ScoopError::Sql("dangling NOT".into()));
        }
        if self.eat_kw("is") {
            let negated = self.eat_kw("not");
            self.expect_kw("null")?;
            return Ok(Expr::IsNull { expr: Box::new(left), negated });
        }
        Ok(left)
    }

    fn additive(&mut self) -> Result<Expr> {
        let mut left = self.multiplicative()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Plus)) => BinOp::Add,
                Some(Token::Symbol(Symbol::Minus)) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let right = self.multiplicative()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn multiplicative(&mut self) -> Result<Expr> {
        let mut left = self.unary()?;
        loop {
            let op = match self.peek() {
                Some(Token::Symbol(Symbol::Star)) => BinOp::Mul,
                Some(Token::Symbol(Symbol::Slash)) => BinOp::Div,
                Some(Token::Symbol(Symbol::Percent)) => BinOp::Mod,
                _ => break,
            };
            self.pos += 1;
            let right = self.unary()?;
            left = Expr::Binary { op, left: Box::new(left), right: Box::new(right) };
        }
        Ok(left)
    }

    fn unary(&mut self) -> Result<Expr> {
        if self.eat_symbol(Symbol::Minus) {
            let inner = self.unary()?;
            // Fold negative literals.
            return Ok(match inner {
                Expr::Literal(Value::Int(i)) => Expr::Literal(Value::Int(-i)),
                Expr::Literal(Value::Float(f)) => Expr::Literal(Value::Float(-f)),
                other => Expr::Binary {
                    op: BinOp::Sub,
                    left: Box::new(Expr::Literal(Value::Int(0))),
                    right: Box::new(other),
                },
            });
        }
        self.primary()
    }

    fn primary(&mut self) -> Result<Expr> {
        match self.next() {
            Some(Token::Int(i)) => Ok(Expr::Literal(Value::Int(i))),
            Some(Token::Float(f)) => Ok(Expr::Literal(Value::Float(f))),
            Some(Token::Str(s)) => Ok(Expr::Literal(Value::Str(s))),
            Some(Token::Symbol(Symbol::LParen)) => {
                let e = self.expr()?;
                self.expect_symbol(Symbol::RParen)?;
                Ok(e)
            }
            Some(Token::Ident(name)) => {
                let lower = name.to_ascii_lowercase();
                if lower == "null" {
                    return Ok(Expr::Literal(Value::Null));
                }
                if self.eat_symbol(Symbol::LParen) {
                    // Function call (aggregate or scalar).
                    if let Some(func) = AggFunc::from_name(&lower) {
                        if func == AggFunc::Count && self.eat_symbol(Symbol::Star) {
                            self.expect_symbol(Symbol::RParen)?;
                            return Ok(Expr::Agg { func, arg: None });
                        }
                        let arg = self.expr()?;
                        self.expect_symbol(Symbol::RParen)?;
                        return Ok(Expr::Agg { func, arg: Some(Box::new(arg)) });
                    }
                    let mut args = Vec::new();
                    if !self.eat_symbol(Symbol::RParen) {
                        args.push(self.expr()?);
                        while self.eat_symbol(Symbol::Comma) {
                            args.push(self.expr()?);
                        }
                        self.expect_symbol(Symbol::RParen)?;
                    }
                    return Ok(Expr::Func { name: lower, args });
                }
                Ok(Expr::Column(lower))
            }
            other => Err(ScoopError::Sql(format!("unexpected token {other:?}"))),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_showmapcons() {
        let q = parse(
            "SELECT vid, sum(index) as max, first_value(lat) as lat, \
             first_value(long) as long, first_value(state) as state \
             FROM largeMeter WHERE date LIKE '2015-01%' \
             GROUP BY SUBSTRING(date, 0, 7), vid \
             ORDER BY SUBSTRING(date, 0, 7), vid",
        )
        .unwrap();
        assert_eq!(q.table, "largemeter");
        assert_eq!(q.items.len(), 5);
        assert_eq!(q.items[1].output_name(), "max");
        assert!(q.is_aggregate());
        assert_eq!(q.group_by.len(), 2);
        assert_eq!(q.order_by.len(), 2);
        assert!(matches!(q.where_clause, Some(Expr::Like { .. })));
    }

    #[test]
    fn parses_showgraphhchp() {
        let q = parse(
            "SELECT SUBSTRING(date, 0, 10) as sDate, vid, min(sumHC) as minHC, \
             max(sumHC) as maxHC, min(sumHP) as minHP, max(sumHP) as maxHP \
             FROM largeMeter WHERE state LIKE 'FRA' AND date LIKE '2015-01-%' \
             GROUP BY SUBSTRING(date, 0, 10), vid ORDER BY SUBSTRING(date, 0, 10), vid",
        )
        .unwrap();
        assert_eq!(q.items.len(), 6);
        let cols = q.referenced_columns().unwrap();
        assert!(cols.contains(&"sumhc".to_string()));
        assert!(cols.contains(&"state".to_string()));
    }

    #[test]
    fn parses_operators_and_precedence() {
        let q = parse("SELECT a FROM t WHERE a + 1 * 2 >= 3 AND b = 'x' OR c < 4").unwrap();
        // OR is outermost.
        let Some(Expr::Binary { op: BinOp::Or, left, .. }) = q.where_clause else {
            panic!("expected OR at top");
        };
        let Expr::Binary { op: BinOp::And, left: and_left, .. } = *left else {
            panic!("expected AND under OR");
        };
        // a + (1*2) >= 3
        let Expr::Binary { op: BinOp::Ge, left: add, .. } = *and_left else {
            panic!("expected >=");
        };
        assert!(matches!(*add, Expr::Binary { op: BinOp::Add, .. }));
    }

    #[test]
    fn parses_in_not_like_is_null_limit() {
        let q = parse(
            "SELECT * FROM t WHERE a IN (1, 2.5, 'x') AND b NOT LIKE 'z%' \
             AND c IS NOT NULL AND d IS NULL AND e NOT IN (7) LIMIT 10",
        )
        .unwrap();
        assert_eq!(q.limit, Some(10));
        assert!(q.referenced_columns().is_none());
        let w = q.where_clause.unwrap().to_string();
        assert!(w.contains("NOT LIKE"));
        assert!(w.contains("IS NOT NULL"));
        assert!(w.contains("NOT IN"));
    }

    #[test]
    fn parses_count_star_and_negatives() {
        let q = parse("SELECT count(*), -5 as neg, -x FROM t").unwrap();
        assert!(matches!(q.items[0].expr, Expr::Agg { func: AggFunc::Count, arg: None }));
        assert_eq!(q.items[1].expr, Expr::Literal(Value::Int(-5)));
        assert!(matches!(q.items[2].expr, Expr::Binary { op: BinOp::Sub, .. }));
    }

    #[test]
    fn bare_alias_and_desc() {
        let q = parse("SELECT vid meter FROM t ORDER BY vid DESC, x ASC").unwrap();
        assert_eq!(q.items[0].output_name(), "meter");
        assert!(q.order_by[0].desc);
        assert!(!q.order_by[1].desc);
    }

    #[test]
    fn rejects_malformed() {
        assert!(parse("SELECT FROM t").is_err());
        assert!(parse("SELECT a").is_err());
        assert!(parse("SELECT a FROM t WHERE").is_err());
        assert!(parse("SELECT a FROM t LIMIT x").is_err());
        assert!(parse("SELECT a FROM t garbage").is_err());
        assert!(parse("SELECT a FROM t WHERE a LIKE b").is_err());
        assert!(parse("SELECT sum( FROM t").is_err());
    }

    #[test]
    fn trailing_semicolon_ok() {
        assert!(parse("SELECT a FROM t;").is_ok());
    }
}
