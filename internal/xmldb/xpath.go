// Package xmldb implements the XML data-resource substrate behind the
// WS-DAIX realisation: named collections of XML documents with nested
// sub-collections, an XPath 1.0 subset query engine, an XUpdate subset
// for in-place document modification, and a FLWOR-lite XQuery layer.
package xmldb

import (
	"fmt"
	"math"
	"strconv"
	"strings"

	"dais/internal/xmlutil"
)

// XPathValue is the XPath 1.0 value model: one of node-set, boolean,
// number or string.
type XPathValue struct {
	Nodes  []*xmlutil.Element // node-set (nil when not a node-set)
	IsNode bool
	Bool   bool
	Num    float64
	Str    string
	Kind   XPathKind
}

// XPathKind discriminates XPathValue.
type XPathKind int

// XPath value kinds.
const (
	KindNodeSet XPathKind = iota
	KindBoolean
	KindNumber
	KindString
)

func nodeSetValue(nodes []*xmlutil.Element) XPathValue {
	return XPathValue{Kind: KindNodeSet, Nodes: nodes, IsNode: true}
}
func boolValue(b bool) XPathValue      { return XPathValue{Kind: KindBoolean, Bool: b} }
func numberValue(f float64) XPathValue { return XPathValue{Kind: KindNumber, Num: f} }
func stringValue(s string) XPathValue  { return XPathValue{Kind: KindString, Str: s} }

// AsBool converts per XPath boolean() rules.
func (v XPathValue) AsBool() bool {
	switch v.Kind {
	case KindNodeSet:
		return len(v.Nodes) > 0
	case KindBoolean:
		return v.Bool
	case KindNumber:
		return v.Num != 0 && !math.IsNaN(v.Num)
	case KindString:
		return v.Str != ""
	}
	return false
}

// AsString converts per XPath string() rules (first node's string-value
// for node-sets).
func (v XPathValue) AsString() string {
	switch v.Kind {
	case KindNodeSet:
		if len(v.Nodes) == 0 {
			return ""
		}
		return v.Nodes[0].Text()
	case KindBoolean:
		if v.Bool {
			return "true"
		}
		return "false"
	case KindNumber:
		return numberString(v.Num)
	case KindString:
		return v.Str
	}
	return ""
}

// numberString renders a number as XPath 1.0's string() does (§4.2):
// the infinities and NaN spelled out, either zero as "0", and any other
// number in decimal with no exponent, in as few digits as tell it from
// every other double.
func numberString(f float64) string {
	switch {
	case math.IsNaN(f):
		return "NaN"
	case math.IsInf(f, 1):
		return "Infinity"
	case math.IsInf(f, -1):
		return "-Infinity"
	case f == 0:
		return "0"
	}
	return strconv.FormatFloat(f, 'f', -1, 64)
}

// AsNumber converts per XPath number() rules.
func (v XPathValue) AsNumber() float64 {
	switch v.Kind {
	case KindNodeSet, KindString:
		f, err := strconv.ParseFloat(strings.TrimSpace(v.AsString()), 64)
		if err != nil {
			return math.NaN()
		}
		return f
	case KindBoolean:
		if v.Bool {
			return 1
		}
		return 0
	case KindNumber:
		return v.Num
	}
	return math.NaN()
}

// xpContext is the evaluation context for one node.
type xpContext struct {
	node     *xmlutil.Element
	position int // 1-based
	size     int
}

// xpath AST.

type xpExpr interface{ xp() }

// Operator chains are flat — args[0] ops[0] args[1] ops[1] ... applied
// left to right — so a long chain is a wide node, not a deep tree.
type xpOr struct{ args []xpExpr }
type xpAnd struct{ args []xpExpr }
type xpCompare struct {
	ops  []string
	args []xpExpr
}
type xpArith struct {
	ops  []string
	args []xpExpr
}
type xpNeg struct{ operand xpExpr }
type xpUnion struct{ paths []xpExpr }
type xpLiteral struct{ v XPathValue }
type xpFunc struct {
	name string
	args []xpExpr
}
type xpPath struct {
	absolute bool
	// start is an optional primary expression the path filters from
	// (e.g. a function returning a node-set); nil = context node.
	start xpExpr
	steps []xpStep
}
type xpStep struct {
	axis      string // child, descendant-or-self, self, parent, attribute
	test      string // element name, "*", "node()", "text()"
	predicate []xpExpr
}

func (*xpOr) xp()      {}
func (*xpAnd) xp()     {}
func (*xpCompare) xp() {}
func (*xpArith) xp()   {}
func (*xpNeg) xp()     {}
func (*xpUnion) xp()   {}
func (*xpLiteral) xp() {}
func (*xpFunc) xp()    {}
func (*xpPath) xp()    {}

// XPath is a compiled XPath expression.
type XPath struct {
	source string
	root   xpExpr
}

// String returns the original expression text.
func (x *XPath) String() string { return x.source }

// CompileXPath parses an XPath 1.0 subset expression. Supported: the
// child, descendant / descendant-or-self (// forms), self (.), parent
// (..), attribute (@), ancestor, ancestor-or-self, following-sibling
// and preceding-sibling axes; name, *, node() and text() tests;
// positional and boolean predicates; the operators or/and/=/!=/</<=/
// >/>=/+/-/*/div/mod/|; and the functions position(), last(), count(),
// name(), string(), number(), boolean(), not(), true(), false(),
// contains(), starts-with(), string-length(), normalize-space(),
// concat(), substring(), sum(), floor(), ceiling(), round(), text().
func CompileXPath(expr string) (*XPath, error) {
	p := &xpParser{src: expr}
	p.lex()
	e, err := p.parseExpr()
	if err != nil {
		return nil, fmt.Errorf("xpath %q: %w", expr, err)
	}
	if !p.atEOF() {
		return nil, fmt.Errorf("xpath %q: unexpected %q", expr, p.cur().text)
	}
	return &XPath{source: expr, root: e}, nil
}

// Eval evaluates the compiled expression with the given element as both
// context node and document root.
func (x *XPath) Eval(doc *xmlutil.Element) (XPathValue, error) {
	return evalXP(x.root, &xpContext{node: doc, position: 1, size: 1})
}

// Select is a convenience returning matched nodes; non-node results are
// an error.
func (x *XPath) Select(doc *xmlutil.Element) ([]*xmlutil.Element, error) {
	v, err := x.Eval(doc)
	if err != nil {
		return nil, err
	}
	if v.Kind != KindNodeSet {
		return nil, fmt.Errorf("xpath %q: result is not a node-set", x.source)
	}
	return v.Nodes, nil
}

// --- lexer ---

type xpToken struct {
	kind string // name, num, str, sym, eof
	text string
}

type xpParser struct {
	src   string
	toks  []xpToken
	pos   int
	err   error
	depth int // nesting levels open, see maxExprDepth
}

// maxExprDepth bounds how deeply an expression nests — brackets and
// unary minus; operator chains are flat — as SQLite's
// SQLITE_MAX_EXPR_DEPTH does for SQL. The parser and the evaluator
// recurse once a level, and a request body is not bounded, so without it
// one deep expression would exhaust a goroutine's stack and kill the
// process. XQuery and XUpdate compile through here.
const maxExprDepth = 1000

var errTooDeep = fmt.Errorf("expression nests more than %d levels deep", maxExprDepth)

// nest opens one level of the parser's own recursion where it needs no
// bracket (unary minus; the lexer bounds brackets); the caller closes it
// with a deferred unnest.
func (p *xpParser) nest() error {
	if p.depth++; p.depth > maxExprDepth {
		return errTooDeep
	}
	return nil
}

func (p *xpParser) unnest() { p.depth-- }

// lex tokenises the expression. Brackets nested past maxExprDepth end it
// early: the parser would refuse them, and the text may be megabytes long.
func (p *xpParser) lex() {
	s := p.src
	i := 0
	depth := 0 // ( and [ open
	for i < len(s) {
		c := s[i]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			i++
		case c == '\'' || c == '"':
			q := c
			j := i + 1
			for j < len(s) && s[j] != q {
				j++
			}
			if j >= len(s) {
				p.err = fmt.Errorf("unterminated string literal")
				p.toks = append(p.toks, xpToken{kind: "eof"})
				return
			}
			p.toks = append(p.toks, xpToken{kind: "str", text: s[i+1 : j]})
			i = j + 1
		case c >= '0' && c <= '9' || (c == '.' && i+1 < len(s) && s[i+1] >= '0' && s[i+1] <= '9'):
			j := i
			seenDot := false
			for j < len(s) && (s[j] >= '0' && s[j] <= '9' || (s[j] == '.' && !seenDot)) {
				if s[j] == '.' {
					seenDot = true
				}
				j++
			}
			p.toks = append(p.toks, xpToken{kind: "num", text: s[i:j]})
			i = j
		case isXPNameStart(c):
			j := i
			for j < len(s) && isXPNamePart(s[j]) {
				// A "::" axis separator must not be swallowed into the
				// name; a single ':' (prefix separator) is part of it.
				if s[j] == ':' && j+1 < len(s) && s[j+1] == ':' {
					break
				}
				j++
			}
			p.toks = append(p.toks, xpToken{kind: "name", text: s[i:j]})
			i = j
		default:
			for _, op := range []string{"//", "!=", "<=", ">=", "::", ".."} {
				if strings.HasPrefix(s[i:], op) {
					p.toks = append(p.toks, xpToken{kind: "sym", text: op})
					i += len(op)
					goto next
				}
			}
			switch c {
			case '/', '[', ']', '(', ')', '@', '*', '|', '=', '<', '>', '+', '-', ',', '.':
				switch c {
				case '(', '[':
					depth++
				case ')', ']':
					depth--
				}
				if depth > maxExprDepth {
					p.err = errTooDeep
					p.toks = append(p.toks, xpToken{kind: "eof"})
					return
				}
				p.toks = append(p.toks, xpToken{kind: "sym", text: string(c)})
				i++
			default:
				p.err = fmt.Errorf("unexpected character %q", c)
				p.toks = append(p.toks, xpToken{kind: "eof"})
				return
			}
		next:
		}
	}
	p.toks = append(p.toks, xpToken{kind: "eof"})
}

func isXPNameStart(c byte) bool {
	return c == '_' || (c >= 'a' && c <= 'z') || (c >= 'A' && c <= 'Z')
}
func isXPNamePart(c byte) bool {
	return isXPNameStart(c) || (c >= '0' && c <= '9') || c == '-' || c == ':'
}

func (p *xpParser) cur() xpToken { return p.toks[p.pos] }
func (p *xpParser) atEOF() bool  { return p.cur().kind == "eof" }
func (p *xpParser) acceptSym(s string) bool {
	if p.cur().kind == "sym" && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}
func (p *xpParser) acceptName(s string) bool {
	if p.cur().kind == "name" && p.cur().text == s {
		p.pos++
		return true
	}
	return false
}
func (p *xpParser) expectSym(s string) error {
	if !p.acceptSym(s) {
		return fmt.Errorf("expected %q, found %q", s, p.cur().text)
	}
	return nil
}

// --- parser (precedence: or < and < compare < add < mul < unary < union < path) ---

func (p *xpParser) parseExpr() (xpExpr, error) {
	if p.err != nil {
		return nil, p.err
	}
	return p.parseOr()
}

func (p *xpParser) parseOr() (xpExpr, error) {
	lone, args, _, err := p.chain(p.parseAnd, "or")
	if err != nil || args == nil {
		return lone, err
	}
	return &xpOr{args: args}, nil
}

func (p *xpParser) parseAnd() (xpExpr, error) {
	lone, args, _, err := p.chain(p.parseCompare, "and")
	if err != nil || args == nil {
		return lone, err
	}
	return &xpAnd{args: args}, nil
}

func (p *xpParser) parseCompare() (xpExpr, error) {
	lone, args, ops, err := p.chain(p.parseAdd, "=", "!=", "<=", ">=", "<", ">")
	if err != nil || args == nil {
		return lone, err
	}
	return &xpCompare{ops: ops, args: args}, nil
}

func (p *xpParser) parseAdd() (xpExpr, error) {
	lone, args, ops, err := p.chain(p.parseMul, "+", "-")
	if err != nil || args == nil {
		return lone, err
	}
	return &xpArith{ops: ops, args: args}, nil
}

func (p *xpParser) parseMul() (xpExpr, error) {
	lone, args, ops, err := p.chain(p.parseUnary, "*", "div", "mod")
	if err != nil || args == nil {
		return lone, err
	}
	return &xpArith{ops: ops, args: args}, nil
}

// chain parses operand (op operand)* for one precedence level's
// operators, symbols or names: the lone operand, or the chain's operands
// and the operators between them.
func (p *xpParser) chain(operand func() (xpExpr, error), ops ...string) (lone xpExpr, args []xpExpr, used []string, err error) {
	lone, err = operand()
	for err == nil {
		op := ""
		for _, o := range ops {
			if p.acceptSym(o) || p.acceptName(o) {
				op = o
				break
			}
		}
		if op == "" {
			break
		}
		if args == nil {
			args = []xpExpr{lone}
		}
		var e xpExpr
		e, err = operand()
		args, used = append(args, e), append(used, op)
	}
	return lone, args, used, err
}

func (p *xpParser) parseUnary() (xpExpr, error) {
	if p.acceptSym("-") {
		if err := p.nest(); err != nil {
			return nil, err
		}
		defer p.unnest()
		e, err := p.parseUnary()
		if err != nil {
			return nil, err
		}
		return &xpNeg{operand: e}, nil
	}
	return p.parseUnion()
}

func (p *xpParser) parseUnion() (xpExpr, error) {
	left, err := p.parsePath()
	if err != nil {
		return nil, err
	}
	paths := []xpExpr{left}
	for p.acceptSym("|") {
		n, err := p.parsePath()
		if err != nil {
			return nil, err
		}
		paths = append(paths, n)
	}
	if len(paths) == 1 {
		return left, nil
	}
	return &xpUnion{paths: paths}, nil
}

func (p *xpParser) parsePath() (xpExpr, error) {
	path := &xpPath{}
	switch {
	case p.acceptSym("//"):
		path.absolute = true
		path.steps = append(path.steps, xpStep{axis: "descendant-or-self", test: "node()"})
	case p.acceptSym("/"):
		path.absolute = true
		if p.pathDone() {
			return path, nil // bare "/" selects the root
		}
	default:
		// Primary expression start? (literal, number, function, parens)
		t := p.cur()
		if t.kind == "str" {
			p.pos++
			return &xpLiteral{v: stringValue(t.text)}, nil
		}
		if t.kind == "num" {
			p.pos++
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return nil, err
			}
			return &xpLiteral{v: numberValue(f)}, nil
		}
		if t.kind == "sym" && t.text == "(" {
			p.pos++
			e, err := p.parseExpr()
			if err != nil {
				return nil, err
			}
			if err := p.expectSym(")"); err != nil {
				return nil, err
			}
			// May be followed by a path continuation: (expr)/a/b
			if p.cur().kind == "sym" && (p.cur().text == "/" || p.cur().text == "//") {
				path.start = e
				goto steps
			}
			return e, nil
		}
		// Function call? name followed by "(" — but not node()/text()
		// which are node tests.
		if t.kind == "name" && p.toks[p.pos+1].kind == "sym" && p.toks[p.pos+1].text == "(" &&
			t.text != "node" && t.text != "text" {
			p.pos += 2
			fn := &xpFunc{name: t.text}
			if !p.acceptSym(")") {
				for {
					a, err := p.parseExpr()
					if err != nil {
						return nil, err
					}
					fn.args = append(fn.args, a)
					if !p.acceptSym(",") {
						break
					}
				}
				if err := p.expectSym(")"); err != nil {
					return nil, err
				}
			}
			if p.cur().kind == "sym" && (p.cur().text == "/" || p.cur().text == "//") {
				path.start = fn
				goto steps
			}
			return fn, nil
		}
	}
steps:
	// mustStep is true whenever a separator has just been consumed, so
	// a trailing "/" is a syntax error.
	mustStep := path.absolute || len(path.steps) > 0
	if path.start != nil {
		// A "(expr)/step" or "fn()/step" continuation: the separator is
		// still pending.
		if p.acceptSym("//") {
			path.steps = append(path.steps, xpStep{axis: "descendant-or-self", test: "node()"})
		} else if !p.acceptSym("/") {
			return nil, fmt.Errorf("expected path after filter expression")
		}
		mustStep = true
	}
	for {
		step, ok, err := p.parseStep()
		if err != nil {
			return nil, err
		}
		if !ok {
			if mustStep {
				return nil, fmt.Errorf("expected location step, found %q", p.cur().text)
			}
			break
		}
		path.steps = append(path.steps, *step)
		if p.acceptSym("//") {
			path.steps = append(path.steps, xpStep{axis: "descendant-or-self", test: "node()"})
			mustStep = true
			continue
		}
		if p.acceptSym("/") {
			mustStep = true
			continue
		}
		break
	}
	if len(path.steps) == 0 && path.start == nil && !path.absolute {
		return nil, fmt.Errorf("expected expression, found %q", p.cur().text)
	}
	return path, nil
}

func (p *xpParser) pathDone() bool {
	t := p.cur()
	if t.kind == "eof" {
		return true
	}
	if t.kind == "sym" {
		switch t.text {
		case "]", ")", ",", "|", "=", "!=", "<", "<=", ">", ">=", "+", "-":
			return true
		}
	}
	if t.kind == "name" && (t.text == "or" || t.text == "and" || t.text == "div" || t.text == "mod") {
		return true
	}
	return false
}

// parseStep parses one location step; ok=false when the current token
// cannot start a step.
func (p *xpParser) parseStep() (*xpStep, bool, error) {
	st := &xpStep{axis: "child"}
	t := p.cur()
	switch {
	case p.acceptSym("."):
		st.axis, st.test = "self", "node()"
	case p.acceptSym(".."):
		st.axis, st.test = "parent", "node()"
	case p.acceptSym("@"):
		st.axis = "attribute"
		if p.acceptSym("*") {
			st.test = "*"
		} else if p.cur().kind == "name" {
			st.test = p.cur().text
			p.pos++
		} else {
			return nil, false, fmt.Errorf("expected attribute name after @")
		}
	case p.acceptSym("*"):
		st.test = "*"
	case t.kind == "name":
		// axis::test ?
		if p.toks[p.pos+1].kind == "sym" && p.toks[p.pos+1].text == "::" {
			axis := t.text
			p.pos += 2
			switch axis {
			case "child", "descendant", "descendant-or-self", "self", "parent",
				"attribute", "ancestor", "ancestor-or-self",
				"following-sibling", "preceding-sibling":
				st.axis = axis
			default:
				return nil, false, fmt.Errorf("unsupported axis %q", axis)
			}
			switch {
			case p.acceptSym("*"):
				st.test = "*"
			case p.cur().kind == "name":
				name := p.cur().text
				p.pos++
				if p.acceptSym("(") {
					if err := p.expectSym(")"); err != nil {
						return nil, false, err
					}
					st.test = name + "()"
				} else {
					st.test = name
				}
			default:
				return nil, false, fmt.Errorf("expected node test after %s::", axis)
			}
		} else {
			name := t.text
			p.pos++
			if p.acceptSym("(") {
				if err := p.expectSym(")"); err != nil {
					return nil, false, err
				}
				st.test = name + "()"
			} else {
				st.test = name
			}
		}
	default:
		return nil, false, nil
	}
	for p.acceptSym("[") {
		e, err := p.parseExpr()
		if err != nil {
			return nil, false, err
		}
		if err := p.expectSym("]"); err != nil {
			return nil, false, err
		}
		st.predicate = append(st.predicate, e)
	}
	return st, true, nil
}
