//! Recursive-descent parser for the extended SQL dialect.

use crate::ast::{
    AggFn, BinOp, ColRef, Expr, JoinClause, JoinKind, Query, SelectItem, Statement, TableRef,
};
use crate::error::SqlError;
use crate::token::{lex, Kw, Tok};

/// Deepest nesting a script may hold: parentheses, subqueries and loop
/// bodies, plus the operators a left-deep chain stacks on its first
/// operand. Every later pass recurses through the tree, so past this
/// depth parsing stops with an error instead of overflowing the stack.
const MAX_DEPTH: usize = 256;

/// A parsed expression and the depth of its operator tree.
type Deep = (Expr, usize);

/// Parses a multi-statement script.
///
/// # Errors
///
/// Returns [`SqlError::Lex`] / [`SqlError::Parse`] on malformed input.
pub fn parse_script(src: &str) -> Result<Vec<Statement>, SqlError> {
    let toks = lex(src)?;
    let mut p = Parser { toks, pos: 0, depth: 0 };
    let mut stmts = Vec::new();
    while !p.at_end() {
        stmts.push(p.statement()?);
        while p.eat(&Tok::Semi) {}
    }
    Ok(stmts)
}

struct Parser {
    toks: Vec<Tok>,
    pos: usize,
    /// Parentheses, subqueries and loop bodies open at `pos`.
    depth: usize,
}

impl Parser {
    fn at_end(&self) -> bool {
        self.pos >= self.toks.len()
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos)
    }

    fn eat(&mut self, t: &Tok) -> bool {
        if self.peek() == Some(t) {
            self.pos += 1;
            true
        } else {
            false
        }
    }

    fn eat_kw(&mut self, kw: Kw) -> bool {
        self.eat(&Tok::Keyword(kw))
    }

    fn err<T>(&self, expected: &str) -> Result<T, SqlError> {
        Err(SqlError::Parse {
            expected: expected.to_owned(),
            found: self.peek().map_or("end of input".to_owned(), ToString::to_string),
        })
    }

    /// Errors when an operator tree `tree` deep, at the current nesting,
    /// passes [`MAX_DEPTH`].
    fn within(&self, tree: usize) -> Result<(), SqlError> {
        if self.depth + tree > MAX_DEPTH {
            return self.err(&format!("at most {MAX_DEPTH} levels of nesting"));
        }
        Ok(())
    }

    fn expect(&mut self, t: &Tok, what: &str) -> Result<(), SqlError> {
        if self.eat(t) {
            Ok(())
        } else {
            self.err(what)
        }
    }

    fn expect_kw(&mut self, kw: Kw) -> Result<(), SqlError> {
        self.expect(&Tok::Keyword(kw), &format!("{kw:?}"))
    }

    fn ident(&mut self, what: &str) -> Result<String, SqlError> {
        match self.peek().cloned() {
            Some(Tok::Ident(s)) => {
                self.pos += 1;
                Ok(s)
            }
            _ => self.err(what),
        }
    }

    fn statement(&mut self) -> Result<Statement, SqlError> {
        match self.peek() {
            Some(Tok::Keyword(Kw::Create)) => {
                self.pos += 1;
                self.expect_kw(Kw::Table)?;
                let name = self.ident("table name")?;
                self.expect_kw(Kw::As)?;
                let query = self.query()?;
                Ok(Statement::CreateTableAs { name, query })
            }
            Some(Tok::Keyword(Kw::Insert)) => {
                self.pos += 1;
                self.expect_kw(Kw::Into)?;
                let name = self.ident("table name")?;
                let query = self.query()?;
                Ok(Statement::Insert { name, query })
            }
            Some(Tok::Keyword(Kw::Declare)) => {
                self.pos += 1;
                let name = self.ident("variable name")?;
                // Optional type annotation (`int`).
                self.eat_kw(Kw::Int);
                Ok(Statement::Declare { name })
            }
            Some(Tok::Keyword(Kw::Set)) => {
                self.pos += 1;
                let name = self.ident("variable name")?;
                self.expect(&Tok::Assign, "=")?;
                let expr = self.expr()?;
                Ok(Statement::Set { name, expr })
            }
            Some(Tok::Keyword(Kw::For)) => {
                self.pos += 1;
                let var = self.ident("loop variable")?;
                self.expect_kw(Kw::In)?;
                let table = self.ident("table name")?;
                self.eat(&Tok::Colon);
                self.depth += 1;
                self.within(0)?;
                let mut body = Vec::new();
                loop {
                    if self.eat_kw(Kw::End) {
                        self.expect_kw(Kw::Loop)?;
                        self.eat(&Tok::Semi);
                        break;
                    }
                    if self.at_end() {
                        return self.err("END LOOP");
                    }
                    body.push(self.statement()?);
                    while self.eat(&Tok::Semi) {}
                }
                self.depth -= 1;
                Ok(Statement::ForLoop { var, table, body })
            }
            Some(Tok::Keyword(Kw::Exec)) => {
                self.pos += 1;
                let module = self.ident("module name")?;
                let mut inputs = Vec::new();
                while let Some(Tok::Ident(_)) = self.peek() {
                    let name = self.ident("input stream name")?;
                    self.expect(&Tok::Assign, "=")?;
                    if !self.eat(&Tok::Underscore) {
                        // An explicit table name is also accepted.
                        let _ = self.ident("table name or _")?;
                    }
                    inputs.push(name);
                }
                Ok(Statement::Exec { module, inputs })
            }
            _ => self.err("statement"),
        }
    }

    fn query(&mut self) -> Result<Query, SqlError> {
        match self.peek() {
            Some(Tok::Keyword(Kw::Select)) => self.select_query(),
            Some(Tok::Keyword(Kw::PosExplode)) => {
                self.pos += 1;
                self.expect(&Tok::LParen, "(")?;
                let array = self.colref()?;
                self.expect(&Tok::Comma, ",")?;
                let init_pos = self.expr()?;
                self.expect(&Tok::RParen, ")")?;
                self.expect_kw(Kw::From)?;
                let from = self.table_ref()?;
                Ok(Query::PosExplode { array, init_pos, from })
            }
            Some(Tok::Keyword(Kw::ReadExplode)) => {
                self.pos += 1;
                self.expect(&Tok::LParen, "(")?;
                let pos = self.expr()?;
                self.expect(&Tok::Comma, ",")?;
                let cigar = self.colref()?;
                self.expect(&Tok::Comma, ",")?;
                let seq = self.colref()?;
                let qual = if self.eat(&Tok::Comma) { Some(self.colref()?) } else { None };
                self.expect(&Tok::RParen, ")")?;
                self.expect_kw(Kw::From)?;
                let from = self.table_ref()?;
                Ok(Query::ReadExplode { pos, cigar, seq, qual, from })
            }
            _ => self.err("SELECT, PosExplode or ReadExplode"),
        }
    }

    fn select_query(&mut self) -> Result<Query, SqlError> {
        self.expect_kw(Kw::Select)?;
        let mut items = vec![self.select_item()?];
        while self.eat(&Tok::Comma) {
            items.push(self.select_item()?);
        }
        self.expect_kw(Kw::From)?;
        let from = self.table_ref()?;
        let join = self.join_clause()?;
        let filter = if self.eat_kw(Kw::Where) { Some(self.expr()?) } else { None };
        let mut group_by = Vec::new();
        if self.eat_kw(Kw::Group) {
            self.expect_kw(Kw::By)?;
            group_by.push(self.colref()?);
            while self.eat(&Tok::Comma) {
                group_by.push(self.colref()?);
            }
        }
        let mut order_by = Vec::new();
        if self.eat_kw(Kw::Order) {
            self.expect_kw(Kw::By)?;
            loop {
                let col = self.colref()?;
                let desc = if self.eat_kw(Kw::Desc) {
                    true
                } else {
                    self.eat_kw(Kw::Asc);
                    false
                };
                order_by.push((col, desc));
                if !self.eat(&Tok::Comma) {
                    break;
                }
            }
        }
        let limit = if self.eat_kw(Kw::Limit) {
            let a = self.expr()?;
            if self.eat(&Tok::Comma) {
                let b = self.expr()?;
                Some((a, b))
            } else {
                // `LIMIT n` is `LIMIT 0, n`.
                Some((Expr::Number(0), a))
            }
        } else {
            None
        };
        Ok(Query::Select { items, from, join, filter, group_by, order_by, limit })
    }

    fn join_clause(&mut self) -> Result<Option<JoinClause>, SqlError> {
        let kind = match self.peek() {
            Some(Tok::Keyword(Kw::Inner)) => {
                self.pos += 1;
                JoinKind::Inner
            }
            Some(Tok::Keyword(Kw::Left)) => {
                self.pos += 1;
                JoinKind::Left
            }
            Some(Tok::Keyword(Kw::Outer)) => {
                self.pos += 1;
                JoinKind::Outer
            }
            Some(Tok::Keyword(Kw::Join)) => JoinKind::Inner,
            _ => return Ok(None),
        };
        self.expect_kw(Kw::Join)?;
        let table = self.table_ref()?;
        self.expect_kw(Kw::On)?;
        let left_key = self.colref()?;
        if !(self.eat(&Tok::Assign) || self.eat(&Tok::EqEq)) {
            return self.err("= in ON clause");
        }
        let right_key = self.colref()?;
        Ok(Some(JoinClause { kind, table, left_key, right_key }))
    }

    fn table_ref(&mut self) -> Result<TableRef, SqlError> {
        if self.eat(&Tok::LParen) {
            self.depth += 1;
            self.within(0)?;
            let q = self.query()?;
            self.depth -= 1;
            self.expect(&Tok::RParen, ")")?;
            return Ok(TableRef::Subquery(Box::new(q)));
        }
        let name = self.ident("table name")?;
        let partition = if self.eat_kw(Kw::Partition) {
            self.expect(&Tok::LParen, "(")?;
            let e = self.expr()?;
            self.expect(&Tok::RParen, ")")?;
            Some(e)
        } else {
            None
        };
        Ok(TableRef::Named { name, partition })
    }

    fn select_item(&mut self) -> Result<SelectItem, SqlError> {
        if self.eat(&Tok::Star) {
            return Ok(SelectItem::Star);
        }
        let agg = match self.peek() {
            Some(Tok::Keyword(Kw::Sum)) => Some(AggFn::Sum),
            Some(Tok::Keyword(Kw::Count)) => Some(AggFn::Count),
            Some(Tok::Keyword(Kw::Min)) => Some(AggFn::Min),
            Some(Tok::Keyword(Kw::Max)) => Some(AggFn::Max),
            _ => None,
        };
        if let Some(func) = agg {
            self.pos += 1;
            self.expect(&Tok::LParen, "(")?;
            let arg = if self.eat(&Tok::Star) { None } else { Some(self.expr()?) };
            self.expect(&Tok::RParen, ")")?;
            let alias = if self.eat_kw(Kw::As) { Some(self.ident("alias")?) } else { None };
            return Ok(SelectItem::Agg { func, arg, alias });
        }
        let expr = self.expr()?;
        let alias = if self.eat_kw(Kw::As) { Some(self.ident("alias")?) } else { None };
        Ok(SelectItem::Expr { expr, alias })
    }

    /// `name` or `name.name`; loop variables and `@vars` are resolved at
    /// evaluation time.
    fn colref(&mut self) -> Result<ColRef, SqlError> {
        let first = self.ident("column reference")?;
        if self.eat(&Tok::Dot) {
            let col = self.ident("column name")?;
            Ok(ColRef::qualified(&first, &col))
        } else {
            Ok(ColRef::bare(&first))
        }
    }

    // Expression grammar: or <- and <- cmp <- add <- atom.
    fn expr(&mut self) -> Result<Expr, SqlError> {
        Ok(self.or_expr()?.0)
    }

    /// `lhs op rhs`, one level deeper than its deeper operand.
    fn bin(&self, op: BinOp, (lhs, ld): Deep, (rhs, rd): Deep) -> Result<Deep, SqlError> {
        let depth = 1 + ld.max(rd);
        self.within(depth)?;
        Ok((Expr::Bin { op, lhs: Box::new(lhs), rhs: Box::new(rhs) }, depth))
    }

    fn or_expr(&mut self) -> Result<Deep, SqlError> {
        let mut lhs = self.and_expr()?;
        while self.eat_kw(Kw::Or) {
            let rhs = self.and_expr()?;
            lhs = self.bin(BinOp::Or, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn and_expr(&mut self) -> Result<Deep, SqlError> {
        let mut lhs = self.cmp_expr()?;
        while self.eat_kw(Kw::And) {
            let rhs = self.cmp_expr()?;
            lhs = self.bin(BinOp::And, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn cmp_expr(&mut self) -> Result<Deep, SqlError> {
        let lhs = self.add_expr()?;
        let op = match self.peek() {
            Some(Tok::EqEq | Tok::Assign) => BinOp::Eq,
            Some(Tok::Ne) => BinOp::Ne,
            Some(Tok::Lt) => BinOp::Lt,
            Some(Tok::Le) => BinOp::Le,
            Some(Tok::Gt) => BinOp::Gt,
            Some(Tok::Ge) => BinOp::Ge,
            _ => return Ok(lhs),
        };
        self.pos += 1;
        let rhs = self.add_expr()?;
        self.bin(op, lhs, rhs)
    }

    fn add_expr(&mut self) -> Result<Deep, SqlError> {
        let mut lhs = self.atom()?;
        loop {
            let op = match self.peek() {
                Some(Tok::Plus) => BinOp::Add,
                Some(Tok::Minus) => BinOp::Sub,
                _ => break,
            };
            self.pos += 1;
            let rhs = self.atom()?;
            lhs = self.bin(op, lhs, rhs)?;
        }
        Ok(lhs)
    }

    fn atom(&mut self) -> Result<Deep, SqlError> {
        match self.peek().cloned() {
            Some(Tok::Number(n)) => {
                self.pos += 1;
                Ok((Expr::Number(n), 0))
            }
            Some(Tok::LParen) => {
                self.pos += 1;
                self.depth += 1;
                self.within(0)?;
                let e = self.or_expr()?;
                self.depth -= 1;
                self.expect(&Tok::RParen, ")")?;
                Ok(e)
            }
            Some(Tok::Ident(name)) if name.starts_with('@') => {
                self.pos += 1;
                Ok((Expr::Var(name), 0))
            }
            Some(Tok::Ident(_)) => {
                // Bare or dot-qualified (Table.COL) name.
                let c = self.colref()?;
                Ok((Expr::Col(c), 0))
            }
            _ => self.err("expression"),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple_select() {
        let s = parse_script("CREATE TABLE T AS SELECT POS, SEQ FROM READS PARTITION (3)")
            .unwrap();
        assert_eq!(s.len(), 1);
        let Statement::CreateTableAs { name, query } = &s[0] else {
            panic!("wrong statement")
        };
        assert_eq!(name, "T");
        let Query::Select { items, from, .. } = query else { panic!("not select") };
        assert_eq!(items.len(), 2);
        let TableRef::Named { name, partition } = from else { panic!() };
        assert_eq!(name, "READS");
        assert_eq!(partition, &Some(Expr::Number(3)));
    }

    #[test]
    fn parse_join_with_subquery_and_limit() {
        let src = "CREATE TABLE #R AS \
            SELECT #A.SEQ, Rel.SEQ FROM #A \
            INNER JOIN (SELECT * FROM Rel LIMIT SingleRead.POS, @rlen) \
            ON #A.POS = Rel.POS";
        let s = parse_script(src).unwrap();
        let Statement::CreateTableAs { query, .. } = &s[0] else { panic!() };
        let Query::Select { join: Some(j), .. } = query else { panic!("no join") };
        assert_eq!(j.kind, JoinKind::Inner);
        assert!(matches!(&j.table, TableRef::Subquery(_)));
        assert_eq!(j.left_key, ColRef::qualified("#A", "POS"));
    }

    #[test]
    fn parse_explodes() {
        let s = parse_script(
            "CREATE TABLE R AS PosExplode(Row.SEQ, Row.POS) FROM Row \
             CREATE TABLE A AS ReadExplode(S.POS, S.CIGAR, S.SEQ) FROM S",
        )
        .unwrap();
        assert!(matches!(
            &s[0],
            Statement::CreateTableAs { query: Query::PosExplode { .. }, .. }
        ));
        assert!(matches!(
            &s[1],
            Statement::CreateTableAs { query: Query::ReadExplode { qual: None, .. }, .. }
        ));
    }

    #[test]
    fn parse_for_loop_with_body() {
        let src = "FOR SingleRead IN ReadPartition: \
            SET @rlen = SingleRead.ENDPOS - SingleRead.POS \
            INSERT INTO Output SELECT SUM(A.SEQ == B.SEQ) FROM #RR \
            END LOOP;";
        let s = parse_script(src).unwrap();
        let Statement::ForLoop { var, table, body } = &s[0] else { panic!() };
        assert_eq!(var, "SingleRead");
        assert_eq!(table, "ReadPartition");
        assert_eq!(body.len(), 2);
        assert!(matches!(&body[1], Statement::Insert { .. }));
    }

    #[test]
    fn parse_aggregates_and_aliases() {
        let s =
            parse_script("CREATE TABLE T AS SELECT COUNT(*), SUM(X) AS total, MIN(Y) FROM U")
                .unwrap();
        let Statement::CreateTableAs { query: Query::Select { items, .. }, .. } = &s[0]
        else {
            panic!()
        };
        assert_eq!(items.len(), 3);
        assert!(matches!(
            &items[0],
            SelectItem::Agg { func: AggFn::Count, arg: None, .. }
        ));
        assert!(matches!(
            &items[1],
            SelectItem::Agg { func: AggFn::Sum, alias: Some(a), .. } if a == "total"
        ));
    }

    #[test]
    fn parse_exec() {
        let s = parse_script("EXEC MDGen InputStream1 = _ InputStream2 = _").unwrap();
        let Statement::Exec { module, inputs } = &s[0] else { panic!() };
        assert_eq!(module, "MDGen");
        assert_eq!(inputs, &vec!["InputStream1".to_owned(), "InputStream2".to_owned()]);
    }

    #[test]
    fn parse_declare_and_where() {
        let s = parse_script(
            "DECLARE @rlen int \
             CREATE TABLE T AS SELECT X FROM U WHERE X > 3 AND X <= 9 GROUP BY X",
        )
        .unwrap();
        assert!(matches!(&s[0], Statement::Declare { name } if name == "@rlen"));
        let Statement::CreateTableAs { query: Query::Select { filter, group_by, .. }, .. } =
            &s[1]
        else {
            panic!()
        };
        assert!(filter.is_some());
        assert_eq!(group_by.len(), 1);
    }

    #[test]
    fn error_on_garbage() {
        assert!(parse_script("CREATE VIEW X").is_err());
        assert!(parse_script("SELECT FROM").is_err());
        assert!(parse_script("FOR x IN t: SET @a = 1").is_err()); // missing END LOOP
    }
}
