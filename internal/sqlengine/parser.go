package sqlengine

import (
	"fmt"
	"strconv"
	"strings"
)

// parser is a hand-written recursive-descent parser over the token
// stream produced by lex.
type parser struct {
	toks   []token
	pos    int
	params int // count of ? markers seen
	depth  int // nesting levels open, see maxExprDepth
}

// maxExprDepth bounds how deeply a statement nests — parentheses, NOT and
// unary minus, operator chains, subqueries, derived tables — as SQLite's
// SQLITE_MAX_EXPR_DEPTH does. The parser and every walk over the tree
// recurse once a level, and a request body is not bounded, so without it
// one deep statement would exhaust a goroutine's stack and kill the
// process.
const maxExprDepth = 1000

var errTooDeep = fmt.Errorf("sql: statement nests more than %d levels deep", maxExprDepth)

// nest opens one level of the parser's own recursion — an expression,
// which bounds CASE, the one construct nesting expressions without a
// parenthesis, NOT and unary minus; the lexer bounds parentheses. The
// caller closes it with a deferred unnest.
func (p *parser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return errTooDeep
	}
	return nil
}

func (p *parser) unnest() { p.depth-- }

// Parse parses a single SQL statement. A trailing semicolon is
// permitted. It returns the statement and the number of positional
// parameters it references.
func Parse(sql string) (Statement, int, error) {
	toks, err := lex(sql)
	if err != nil {
		return nil, 0, err
	}
	p := &parser{toks: toks}
	st, err := p.parseStatement()
	if err != nil {
		return nil, 0, err
	}
	if stmtTooDeep(st) {
		return nil, 0, errTooDeep
	}
	p.accept(tokSymbol, ";")
	if !p.at(tokEOF, "") {
		return nil, 0, fmt.Errorf("sql: unexpected %q after statement", p.cur().text)
	}
	return st, p.params, nil
}

func (p *parser) cur() token  { return p.toks[p.pos] }
func (p *parser) next() token { t := p.toks[p.pos]; p.pos++; return t }

func (p *parser) at(kind tokenKind, text string) bool {
	t := p.cur()
	return t.kind == kind && (text == "" || t.text == text)
}

func (p *parser) accept(kind tokenKind, text string) bool {
	if p.at(kind, text) {
		p.pos++
		return true
	}
	return false
}

func (p *parser) expect(kind tokenKind, text string) (token, error) {
	if p.at(kind, text) {
		return p.next(), nil
	}
	want := text
	if want == "" {
		want = fmt.Sprintf("token kind %d", kind)
	}
	return token{}, fmt.Errorf("sql: expected %s at offset %d, found %q", want, p.cur().pos, p.cur().text)
}

// identLike consumes an identifier; non-reserved usage of some keywords
// (e.g. COUNT as a column name) is not supported — keep names plain.
func (p *parser) identLike() (string, error) {
	if p.at(tokIdent, "") {
		return p.next().text, nil
	}
	return "", fmt.Errorf("sql: expected identifier at offset %d, found %q", p.cur().pos, p.cur().text)
}

func (p *parser) parseStatement() (Statement, error) {
	switch {
	case p.at(tokKeyword, "SELECT"):
		return p.parseSelect()
	case p.at(tokKeyword, "INSERT"):
		return p.parseInsert()
	case p.at(tokKeyword, "UPDATE"):
		return p.parseUpdate()
	case p.at(tokKeyword, "DELETE"):
		return p.parseDelete()
	case p.at(tokKeyword, "CREATE"):
		return p.parseCreate()
	case p.at(tokKeyword, "DROP"):
		return p.parseDrop()
	case p.accept(tokKeyword, "BEGIN"):
		p.accept(tokKeyword, "TRANSACTION")
		return &BeginStmt{}, nil
	case p.accept(tokKeyword, "COMMIT"):
		return &CommitStmt{}, nil
	case p.accept(tokKeyword, "ROLLBACK"):
		return &RollbackStmt{}, nil
	case p.accept(tokKeyword, "EXPLAIN"):
		if p.at(tokKeyword, "EXPLAIN") {
			return nil, fmt.Errorf("sql: EXPLAIN cannot be nested")
		}
		inner, err := p.parseStatement()
		if err != nil {
			return nil, err
		}
		return &ExplainStmt{Stmt: inner}, nil
	}
	return nil, fmt.Errorf("sql: unsupported statement starting with %q", p.cur().text)
}

func (p *parser) parseCreate() (Statement, error) {
	p.next() // CREATE
	unique := p.accept(tokKeyword, "UNIQUE")
	ordered := p.accept(tokKeyword, "ORDERED")
	switch {
	case p.accept(tokKeyword, "TABLE"):
		if unique || ordered {
			return nil, fmt.Errorf("sql: UNIQUE/ORDERED is not valid before TABLE")
		}
		return p.parseCreateTable()
	case p.accept(tokKeyword, "INDEX"):
		return p.parseCreateIndex(unique)
	case p.accept(tokKeyword, "VIEW"):
		if unique || ordered {
			return nil, fmt.Errorf("sql: UNIQUE/ORDERED is not valid before VIEW")
		}
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AS"); err != nil {
			return nil, err
		}
		sel, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		return &CreateViewStmt{Name: name, Select: sel.(*SelectStmt)}, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE, INDEX or VIEW after CREATE")
}

func (p *parser) parseCreateTable() (Statement, error) {
	st := &CreateTableStmt{}
	if p.accept(tokKeyword, "IF") {
		if _, err := p.expect(tokKeyword, "NOT"); err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
			return nil, err
		}
		st.IfNotExists = true
	}
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st.Name = name
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	for {
		if p.accept(tokKeyword, "PRIMARY") {
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			for {
				col, err := p.identLike()
				if err != nil {
					return nil, err
				}
				st.PrimaryKey = append(st.PrimaryKey, col)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
		} else {
			col, err := p.parseColumnDef()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, *col)
			if col.PrimaryKey {
				st.PrimaryKey = append(st.PrimaryKey, col.Name)
			}
		}
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return st, nil
}

func (p *parser) parseColumnDef() (*ColumnDef, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	typeName, err := p.identLike()
	if err != nil {
		return nil, fmt.Errorf("sql: column %s: %w", name, err)
	}
	typ, err := TypeFromName(typeName)
	if err != nil {
		return nil, fmt.Errorf("sql: column %s: %w", name, err)
	}
	// Optional length/precision specifier, ignored: VARCHAR(255).
	if p.accept(tokSymbol, "(") {
		for !p.accept(tokSymbol, ")") {
			if p.at(tokEOF, "") {
				return nil, fmt.Errorf("sql: unterminated type specifier for column %s", name)
			}
			p.next()
		}
	}
	col := &ColumnDef{Name: name, Type: typ}
	for {
		switch {
		case p.accept(tokKeyword, "NOT"):
			if _, err := p.expect(tokKeyword, "NULL"); err != nil {
				return nil, err
			}
			col.NotNull = true
		case p.accept(tokKeyword, "NULL"):
			// explicit nullable; no-op
		case p.accept(tokKeyword, "PRIMARY"):
			if _, err := p.expect(tokKeyword, "KEY"); err != nil {
				return nil, err
			}
			col.PrimaryKey = true
			col.NotNull = true
		case p.accept(tokKeyword, "UNIQUE"):
			col.Unique = true
		case p.accept(tokKeyword, "DEFAULT"):
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			col.Default = e
		default:
			return col, nil
		}
	}
}

func (p *parser) parseCreateIndex(unique bool) (Statement, error) {
	name, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "ON"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	col, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return &CreateIndexStmt{Name: name, Table: table, Column: col, Unique: unique}, nil
}

func (p *parser) parseDrop() (Statement, error) {
	p.next() // DROP
	switch {
	case p.accept(tokKeyword, "TABLE"):
		st := &DropTableStmt{}
		if p.accept(tokKeyword, "IF") {
			if _, err := p.expect(tokKeyword, "EXISTS"); err != nil {
				return nil, err
			}
			st.IfExists = true
		}
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		st.Name = name
		return st, nil
	case p.accept(tokKeyword, "INDEX"):
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return &DropIndexStmt{Name: name}, nil
	case p.accept(tokKeyword, "VIEW"):
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		return &DropViewStmt{Name: name}, nil
	}
	return nil, fmt.Errorf("sql: expected TABLE, INDEX or VIEW after DROP")
}

func (p *parser) parseInsert() (Statement, error) {
	p.next() // INSERT
	if _, err := p.expect(tokKeyword, "INTO"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	if p.accept(tokSymbol, "(") {
		for {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			st.Columns = append(st.Columns, col)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
	}
	if p.at(tokKeyword, "SELECT") {
		q, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		st.Query = q.(*SelectStmt)
		return st, nil
	}
	if _, err := p.expect(tokKeyword, "VALUES"); err != nil {
		return nil, err
	}
	for {
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		var row []Expr
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			row = append(row, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, row)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	return st, nil
}

func (p *parser) parseUpdate() (Statement, error) {
	p.next() // UPDATE
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	if _, err := p.expect(tokKeyword, "SET"); err != nil {
		return nil, err
	}
	st := &UpdateStmt{Table: table}
	for {
		col, err := p.identLike()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, "="); err != nil {
			return nil, err
		}
		val, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Set = append(st.Set, SetClause{Column: col, Value: val})
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseDelete() (Statement, error) {
	p.next() // DELETE
	if _, err := p.expect(tokKeyword, "FROM"); err != nil {
		return nil, err
	}
	table, err := p.identLike()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	return st, nil
}

func (p *parser) parseSelect() (Statement, error) {
	st, err := p.parseSelectCore()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "UNION") {
		all := p.accept(tokKeyword, "ALL")
		right, err := p.parseSelectCore()
		if err != nil {
			return nil, err
		}
		st.Unions = append(st.Unions, UnionPart{All: all, Sel: right})
	}
	if p.accept(tokKeyword, "ORDER") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			it := OrderItem{Expr: e}
			if p.accept(tokKeyword, "DESC") {
				it.Desc = true
			} else {
				p.accept(tokKeyword, "ASC")
			}
			st.OrderBy = append(st.OrderBy, it)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "LIMIT") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Limit = e
	}
	if p.accept(tokKeyword, "OFFSET") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Offset = e
	}
	return st, nil
}

// parseSelectCore parses one SELECT body up to (but excluding)
// UNION / ORDER BY / LIMIT / OFFSET.
func (p *parser) parseSelectCore() (*SelectStmt, error) {
	if _, err := p.expect(tokKeyword, "SELECT"); err != nil {
		return nil, err
	}
	st := &SelectStmt{}
	if p.accept(tokKeyword, "DISTINCT") {
		st.Distinct = true
	} else {
		p.accept(tokKeyword, "ALL")
	}
	for {
		item, err := p.parseSelectItem()
		if err != nil {
			return nil, err
		}
		st.Items = append(st.Items, *item)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if p.accept(tokKeyword, "FROM") {
		tr, err := p.parseTableRef()
		if err != nil {
			return nil, err
		}
		st.From = tr
		for {
			var kind JoinKind
			switch {
			case p.accept(tokKeyword, "JOIN"):
				kind = JoinInner
			case p.at(tokKeyword, "INNER"):
				p.next()
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
				kind = JoinInner
			case p.at(tokKeyword, "LEFT"):
				p.next()
				p.accept(tokKeyword, "OUTER")
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
				kind = JoinLeft
			case p.at(tokKeyword, "RIGHT"):
				p.next()
				p.accept(tokKeyword, "OUTER")
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
				kind = JoinRight
			case p.at(tokKeyword, "CROSS"):
				p.next()
				if _, err := p.expect(tokKeyword, "JOIN"); err != nil {
					return nil, err
				}
				kind = JoinCross
			case p.accept(tokSymbol, ","):
				kind = JoinCross
			default:
				goto joinsDone
			}
			jt, err := p.parseTableRef()
			if err != nil {
				return nil, err
			}
			jc := JoinClause{Kind: kind, Table: jt}
			if kind != JoinCross {
				if _, err := p.expect(tokKeyword, "ON"); err != nil {
					return nil, err
				}
				on, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				jc.On = on
			}
			st.Joins = append(st.Joins, jc)
		}
	joinsDone:
	}
	if p.accept(tokKeyword, "WHERE") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Where = w
	}
	if p.accept(tokKeyword, "GROUP") {
		if _, err := p.expect(tokKeyword, "BY"); err != nil {
			return nil, err
		}
		for {
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			st.GroupBy = append(st.GroupBy, e)
			if !p.accept(tokSymbol, ",") {
				break
			}
		}
	}
	if p.accept(tokKeyword, "HAVING") {
		h, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		st.Having = h
	}
	return st, nil
}

func (p *parser) parseSelectItem() (*SelectItem, error) {
	if p.accept(tokSymbol, "*") {
		return &SelectItem{Star: true}, nil
	}
	// t.* form: ident '.' '*'
	if p.at(tokIdent, "") && p.pos+2 < len(p.toks) &&
		p.toks[p.pos+1].kind == tokSymbol && p.toks[p.pos+1].text == "." &&
		p.toks[p.pos+2].kind == tokSymbol && p.toks[p.pos+2].text == "*" {
		tbl := p.next().text
		p.next()
		p.next()
		return &SelectItem{Star: true, StarTable: tbl}, nil
	}
	e, err := p.parseExpr()
	if err != nil {
		return nil, err
	}
	item := &SelectItem{Expr: e}
	if p.accept(tokKeyword, "AS") {
		a, err := p.identLike()
		if err != nil {
			return nil, err
		}
		item.Alias = a
	} else if p.at(tokIdent, "") {
		item.Alias = p.next().text
	}
	return item, nil
}

func (p *parser) parseTableRef() (*TableRef, error) {
	tr := &TableRef{}
	if p.accept(tokSymbol, "(") {
		sub, err := p.parseSelect()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		tr.Subquery = sub.(*SelectStmt)
	} else {
		name, err := p.identLike()
		if err != nil {
			return nil, err
		}
		tr.Table = name
	}
	if p.accept(tokKeyword, "AS") {
		a, err := p.identLike()
		if err != nil {
			return nil, err
		}
		tr.Alias = a
	} else if p.at(tokIdent, "") {
		tr.Alias = p.next().text
	}
	if tr.Subquery != nil && tr.Alias == "" {
		return nil, fmt.Errorf("sql: derived table requires an alias")
	}
	return tr, nil
}

// Expression parsing: precedence climbing.
// OR < AND < NOT < comparison < additive < multiplicative < unary.

func (p *parser) parseExpr() (Expr, error) {
	if err := p.nest(); err != nil {
		return nil, err
	}
	defer p.unnest()
	return p.parseOr()
}

func (p *parser) parseOr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "OR") {
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "OR", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.accept(tokKeyword, "AND") {
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: "AND", Left: left, Right: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.accept(tokKeyword, "NOT") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "NOT", Operand: e}, nil
	}
	return p.parseComparison()
}

func (p *parser) parseComparison() (Expr, error) {
	left, err := p.parseAdditive()
	if err != nil {
		return nil, err
	}
	// IS [NOT] NULL
	if p.accept(tokKeyword, "IS") {
		neg := p.accept(tokKeyword, "NOT")
		if _, err := p.expect(tokKeyword, "NULL"); err != nil {
			return nil, err
		}
		return &IsNullExpr{Operand: left, Negate: neg}, nil
	}
	neg := false
	if p.at(tokKeyword, "NOT") {
		// lookahead for NOT IN / NOT BETWEEN / NOT LIKE
		nxt := p.toks[p.pos+1]
		if nxt.kind == tokKeyword && (nxt.text == "IN" || nxt.text == "BETWEEN" || nxt.text == "LIKE") {
			p.next()
			neg = true
		}
	}
	switch {
	case p.accept(tokKeyword, "IN"):
		if _, err := p.expect(tokSymbol, "("); err != nil {
			return nil, err
		}
		in := &InExpr{Operand: left, Negate: neg}
		if p.at(tokKeyword, "SELECT") {
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			in.Subquery = sub.(*SelectStmt)
		} else {
			for {
				e, err := p.parseExpr()
				if err != nil {
					return nil, err
				}
				in.List = append(in.List, e)
				if !p.accept(tokSymbol, ",") {
					break
				}
			}
		}
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return in, nil
	case p.accept(tokKeyword, "BETWEEN"):
		lo, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "AND"); err != nil {
			return nil, err
		}
		hi, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		return &BetweenExpr{Operand: left, Lo: lo, Hi: hi, Negate: neg}, nil
	case p.accept(tokKeyword, "LIKE"):
		right, err := p.parseAdditive()
		if err != nil {
			return nil, err
		}
		var e Expr = &BinaryExpr{Op: "LIKE", Left: left, Right: right}
		if neg {
			e = &UnaryExpr{Op: "NOT", Operand: e}
		}
		return e, nil
	}
	for _, op := range []string{"=", "<>", "!=", "<=", ">=", "<", ">"} {
		if p.accept(tokSymbol, op) {
			right, err := p.parseAdditive()
			if err != nil {
				return nil, err
			}
			if op == "!=" {
				op = "<>"
			}
			return &BinaryExpr{Op: op, Left: left, Right: right}, nil
		}
	}
	return left, nil
}

func (p *parser) parseAdditive() (Expr, error) {
	left, err := p.parseMultiplicative()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "+"):
			op = "+"
		case p.accept(tokSymbol, "-"):
			op = "-"
		case p.accept(tokSymbol, "||"):
			op = "||"
		default:
			return left, nil
		}
		right, err := p.parseMultiplicative()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseMultiplicative() (Expr, error) {
	left, err := p.parseUnary()
	if err != nil {
		return nil, err
	}
	for {
		var op string
		switch {
		case p.accept(tokSymbol, "*"):
			op = "*"
		case p.accept(tokSymbol, "/"):
			op = "/"
		case p.accept(tokSymbol, "%"):
			op = "%"
		default:
			return left, nil
		}
		right, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		left = &BinaryExpr{Op: op, Left: left, Right: right}
	}
}

func (p *parser) parseUnary() (Expr, error) {
	if p.accept(tokSymbol, "-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &UnaryExpr{Op: "-", Operand: e}, nil
	}
	p.accept(tokSymbol, "+")
	return p.parsePrimary()
}

func (p *parser) parsePrimary() (Expr, error) {
	t := p.cur()
	switch t.kind {
	case tokNumber:
		p.next()
		if strings.ContainsAny(t.text, ".eE") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, fmt.Errorf("sql: bad number %q: %w", t.text, err)
			}
			return &LiteralExpr{Value: NewDouble(f)}, nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			f, ferr := strconv.ParseFloat(t.text, 64)
			if ferr != nil {
				return nil, fmt.Errorf("sql: bad number %q: %w", t.text, err)
			}
			return &LiteralExpr{Value: NewDouble(f)}, nil
		}
		if i != int64(int32(i)) {
			return &LiteralExpr{Value: NewBigint(i)}, nil
		}
		return &LiteralExpr{Value: NewInt(i)}, nil
	case tokString:
		p.next()
		return &LiteralExpr{Value: NewString(t.text)}, nil
	case tokParam:
		p.next()
		e := &ParamExpr{Index: p.params}
		p.params++
		return e, nil
	case tokKeyword:
		switch t.text {
		case "NULL":
			p.next()
			return &LiteralExpr{Value: Null}, nil
		case "TRUE":
			p.next()
			return &LiteralExpr{Value: NewBool(true)}, nil
		case "FALSE":
			p.next()
			return &LiteralExpr{Value: NewBool(false)}, nil
		case "COUNT", "SUM", "AVG", "MIN", "MAX":
			p.next()
			return p.parseFuncCall(t.text)
		case "EXISTS":
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			sub, err := p.parseSelect()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return &ExistsExpr{Select: sub.(*SelectStmt)}, nil
		case "CASE":
			return p.parseCase()
		case "CAST":
			p.next()
			if _, err := p.expect(tokSymbol, "("); err != nil {
				return nil, err
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokKeyword, "AS"); err != nil {
				return nil, err
			}
			typeName, err := p.identLike()
			if err != nil {
				return nil, err
			}
			typ, err := TypeFromName(typeName)
			if err != nil {
				return nil, err
			}
			if p.accept(tokSymbol, "(") {
				for !p.accept(tokSymbol, ")") {
					if p.at(tokEOF, "") {
						return nil, fmt.Errorf("sql: unterminated CAST type")
					}
					p.next()
				}
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return &CastExpr{Operand: e, Target: typ}, nil
		}
		return nil, fmt.Errorf("sql: unexpected keyword %q at offset %d", t.text, t.pos)
	case tokIdent:
		p.next()
		// Function call?
		if p.at(tokSymbol, "(") {
			return p.parseFuncCall(strings.ToUpper(t.text))
		}
		// Qualified column?
		if p.accept(tokSymbol, ".") {
			col, err := p.identLike()
			if err != nil {
				return nil, err
			}
			return &ColumnExpr{Table: t.text, Column: col}, nil
		}
		return &ColumnExpr{Column: t.text}, nil
	case tokSymbol:
		if t.text == "(" {
			p.next()
			if p.at(tokKeyword, "SELECT") {
				sub, err := p.parseSelect()
				if err != nil {
					return nil, err
				}
				if _, err := p.expect(tokSymbol, ")"); err != nil {
					return nil, err
				}
				return &SubqueryExpr{Select: sub.(*SelectStmt)}, nil
			}
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if _, err := p.expect(tokSymbol, ")"); err != nil {
				return nil, err
			}
			return e, nil
		}
	}
	return nil, fmt.Errorf("sql: unexpected token %q at offset %d", t.text, t.pos)
}

func (p *parser) parseFuncCall(name string) (Expr, error) {
	if _, err := p.expect(tokSymbol, "("); err != nil {
		return nil, err
	}
	f := &FuncExpr{Name: name}
	if p.accept(tokSymbol, "*") {
		f.Star = true
		if _, err := p.expect(tokSymbol, ")"); err != nil {
			return nil, err
		}
		return f, nil
	}
	if p.accept(tokSymbol, ")") {
		return f, nil
	}
	if p.accept(tokKeyword, "DISTINCT") {
		f.Distinct = true
	}
	for {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		f.Args = append(f.Args, e)
		if !p.accept(tokSymbol, ",") {
			break
		}
	}
	if _, err := p.expect(tokSymbol, ")"); err != nil {
		return nil, err
	}
	return f, nil
}

func (p *parser) parseCase() (Expr, error) {
	p.next() // CASE
	c := &CaseExpr{}
	if !p.at(tokKeyword, "WHEN") {
		op, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Operand = op
	}
	for p.accept(tokKeyword, "WHEN") {
		w, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if _, err := p.expect(tokKeyword, "THEN"); err != nil {
			return nil, err
		}
		th, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Whens = append(c.Whens, CaseWhen{When: w, Then: th})
	}
	if len(c.Whens) == 0 {
		return nil, fmt.Errorf("sql: CASE requires at least one WHEN")
	}
	if p.accept(tokKeyword, "ELSE") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		c.Else = e
	}
	if _, err := p.expect(tokKeyword, "END"); err != nil {
		return nil, err
	}
	return c, nil
}

// stmtTooDeep reports whether an expression of st, with the SELECTs
// nested in it, is more than maxExprDepth levels deep. Operator chains
// grow the tree in a loop, not by the parser's recursion, so the tree is
// measured once built; the walk recurses no deeper than the bound.
func stmtTooDeep(st Statement) bool {
	deep := false
	expr := func(e Expr) { deep = deep || tooDeep(e, maxExprDepth) }
	switch n := st.(type) {
	case *SelectStmt:
		return selectTooDeep(n, maxExprDepth)
	case *CreateViewStmt:
		return selectTooDeep(n.Select, maxExprDepth)
	case *ExplainStmt:
		return stmtTooDeep(n.Stmt)
	case *InsertStmt:
		for _, row := range n.Rows {
			for _, e := range row {
				expr(e)
			}
		}
		deep = deep || n.Query != nil && selectTooDeep(n.Query, maxExprDepth)
	case *UpdateStmt:
		for _, s := range n.Set {
			expr(s.Value)
		}
		expr(n.Where)
	case *DeleteStmt:
		expr(n.Where)
	case *CreateTableStmt:
		for _, c := range n.Columns {
			expr(c.Default)
		}
	}
	return deep
}

// tooDeep reports whether e is more than n levels deep.
func tooDeep(e Expr, n int) bool {
	if e == nil {
		return false
	}
	if n == 0 {
		return true
	}
	deep := false
	eachChild(e, func(c Expr) { deep = deep || tooDeep(c, n-1) }, func(s *SelectStmt) { deep = deep || selectTooDeep(s, n-1) })
	return deep
}

// selectTooDeep is tooDeep for a SELECT block, which is one level.
func selectTooDeep(st *SelectStmt, n int) bool {
	if n == 0 {
		return true
	}
	deep := false
	sub := func(s *SelectStmt) { deep = deep || selectTooDeep(s, n-1) }
	derived := func(tr *TableRef) {
		if tr.Subquery != nil {
			sub(tr.Subquery)
		}
	}
	eachPart(st, derived, func(e Expr) { deep = deep || tooDeep(e, n-1) }, sub)
	return deep
}
