package xmldb

import (
	"fmt"
	"math"
	"strings"

	"dais/internal/xmlutil"
)

// evalXP evaluates an XPath AST node in a context.
func evalXP(e xpExpr, ctx *xpContext) (XPathValue, error) {
	switch n := e.(type) {
	case *xpLiteral:
		return n.v, nil
	case *xpOr:
		for _, a := range n.args {
			v, err := evalXP(a, ctx)
			if err != nil {
				return XPathValue{}, err
			}
			if v.AsBool() {
				return boolValue(true), nil
			}
		}
		return boolValue(false), nil
	case *xpAnd:
		for _, a := range n.args {
			v, err := evalXP(a, ctx)
			if err != nil {
				return XPathValue{}, err
			}
			if !v.AsBool() {
				return boolValue(false), nil
			}
		}
		return boolValue(true), nil
	case *xpNeg:
		v, err := evalXP(n.operand, ctx)
		if err != nil {
			return XPathValue{}, err
		}
		return numberValue(-v.AsNumber()), nil
	case *xpCompare:
		l, err := evalXP(n.args[0], ctx)
		for i := 0; err == nil && i < len(n.ops); i++ {
			var r XPathValue
			if r, err = evalXP(n.args[i+1], ctx); err == nil {
				l = boolValue(compareValues(n.ops[i], l, r))
			}
		}
		return l, err
	case *xpArith:
		l, err := evalXP(n.args[0], ctx)
		x := l.AsNumber()
		for i := 0; err == nil && i < len(n.ops); i++ {
			var r XPathValue
			if r, err = evalXP(n.args[i+1], ctx); err == nil {
				x = arith(n.ops[i], x, r.AsNumber())
			}
		}
		return numberValue(x), err
	case *xpUnion:
		seen := map[*xmlutil.Element]bool{}
		var nodes []*xmlutil.Element
		for _, pth := range n.paths {
			v, err := evalXP(pth, ctx)
			if err != nil {
				return XPathValue{}, err
			}
			if v.Kind != KindNodeSet {
				return XPathValue{}, fmt.Errorf("union operand is not a node-set")
			}
			for _, nd := range v.Nodes {
				if !seen[nd] {
					seen[nd] = true
					nodes = append(nodes, nd)
				}
			}
		}
		return nodeSetValue(nodes), nil
	case *xpFunc:
		return evalXPFunc(n, ctx)
	case *xpPath:
		return evalPath(n, ctx)
	}
	return XPathValue{}, fmt.Errorf("unsupported xpath node %T", e)
}

// compareValues implements XPath comparison semantics, including the
// node-set existential rules.
func compareValues(op string, l, r XPathValue) bool {
	// Node-set vs anything: existential over string-values.
	if l.Kind == KindNodeSet || r.Kind == KindNodeSet {
		for i := 0; i < operandCount(l); i++ {
			lv := operand(l, i)
			for j := 0; j < operandCount(r); j++ {
				if compareAtoms(op, lv, operand(r, j)) {
					return true
				}
			}
		}
		return false
	}
	return compareAtoms(op, l, r)
}

func arith(op string, l, r float64) float64 {
	switch op {
	case "+":
		return l + r
	case "-":
		return l - r
	case "*":
		return l * r
	case "div":
		return l / r
	}
	return math.Mod(l, r)
}

// operandCount and operand read a comparison operand as its atoms: a
// node-set's per-node string values, or the one scalar.
func operandCount(v XPathValue) int {
	if v.Kind != KindNodeSet {
		return 1
	}
	return len(v.Nodes)
}

func operand(v XPathValue, i int) XPathValue {
	if v.Kind != KindNodeSet {
		return v
	}
	return stringValue(v.Nodes[i].Text())
}

func compareAtoms(op string, l, r XPathValue) bool {
	switch op {
	case "=", "!=":
		var eq bool
		switch {
		case l.Kind == KindBoolean || r.Kind == KindBoolean:
			eq = l.AsBool() == r.AsBool()
		case l.Kind == KindNumber || r.Kind == KindNumber:
			eq = l.AsNumber() == r.AsNumber()
		default:
			eq = l.AsString() == r.AsString()
		}
		if op == "=" {
			return eq
		}
		return !eq
	case "<":
		return l.AsNumber() < r.AsNumber()
	case "<=":
		return l.AsNumber() <= r.AsNumber()
	case ">":
		return l.AsNumber() > r.AsNumber()
	case ">=":
		return l.AsNumber() >= r.AsNumber()
	}
	return false
}

// evalPath walks location steps from the context node (or the start
// expression / document root for absolute paths).
func evalPath(p *xpPath, ctx *xpContext) (XPathValue, error) {
	var current []*xmlutil.Element
	switch {
	case p.start != nil:
		v, err := evalXP(p.start, ctx)
		if err != nil {
			return XPathValue{}, err
		}
		if v.Kind != KindNodeSet {
			return XPathValue{}, fmt.Errorf("filter expression is not a node-set")
		}
		current = v.Nodes
	case p.absolute:
		root := ctx.node
		for root.Parent() != nil {
			root = root.Parent()
		}
		if len(p.steps) == 0 {
			return nodeSetValue([]*xmlutil.Element{root}), nil
		}
		// Start from a synthetic document node whose only child is the
		// root element, so "/a" tests the root element itself.
		current = []*xmlutil.Element{wrapRoot(root)}
	default:
		current = []*xmlutil.Element{ctx.node}
	}
	for _, step := range p.steps {
		next, err := applyStep(step, current)
		if err != nil {
			return XPathValue{}, err
		}
		current = next
	}
	return nodeSetValue(current), nil
}

// wrapRoot builds a synthetic document node whose only child is the
// root element; absolute paths step through it so the first step can
// test the root element itself. The root's parent pointer is left
// untouched, so ".." from the root still yields nothing.
func wrapRoot(root *xmlutil.Element) *xmlutil.Element {
	w := &xmlutil.Element{Name: xmlutil.Name{Local: "#document"}}
	w.Children = []xmlutil.Node{root}
	return w
}

// applyStep applies one location step to every node in the input set,
// concatenating results in document order and applying predicates.
func applyStep(step xpStep, input []*xmlutil.Element) ([]*xmlutil.Element, error) {
	var out []*xmlutil.Element
	// One input node reaches no node twice along an axis; only several
	// (a descendant axis from nested nodes, say) need the duplicates out.
	var seen map[*xmlutil.Element]bool
	if len(input) > 1 {
		seen = map[*xmlutil.Element]bool{}
	}
	var pctx xpContext // one for the step: evalXP reads it and keeps nothing
	for _, node := range input {
		axis := step.axis
		// Text nodes are not modelled as separate tree nodes: "x/text()"
		// selects x itself when x is a leaf (its string-value is the
		// text), so retarget the child axis to self for text() tests.
		if step.test == "text()" && axis == "child" {
			axis = "self"
		}
		// axisNodes hands over a slice of its own making, so the node
		// test and the predicates filter it where it lies.
		candidates := axisNodes(axis, node)
		matched := candidates[:0]
		for _, c := range candidates {
			if nodeTestMatches(step.test, c) {
				matched = append(matched, c)
			}
		}
		// Predicates apply per input node with positional context.
		for _, pred := range step.predicate {
			pctx.size = len(matched)
			kept := matched[:0]
			for i, c := range matched {
				pctx.node, pctx.position = c, i+1
				v, err := evalXP(pred, &pctx)
				if err != nil {
					return nil, err
				}
				keep := false
				if v.Kind == KindNumber {
					keep = int(v.Num) == pctx.position
				} else {
					keep = v.AsBool()
				}
				if keep {
					kept = append(kept, c)
				}
			}
			matched = kept
		}
		if seen == nil {
			return matched, nil
		}
		for _, c := range matched {
			if !seen[c] {
				seen[c] = true
				out = append(out, c)
			}
		}
	}
	return out, nil
}

// axisNodes returns the candidate nodes along an axis from a node.
func axisNodes(axis string, node *xmlutil.Element) []*xmlutil.Element {
	switch axis {
	case "child":
		return node.ChildElements()
	case "self":
		return []*xmlutil.Element{node}
	case "parent":
		if p := node.Parent(); p != nil {
			return []*xmlutil.Element{p}
		}
		return nil
	case "descendant":
		var out []*xmlutil.Element
		collectDescendants(node, &out)
		return out
	case "descendant-or-self":
		out := []*xmlutil.Element{node}
		collectDescendants(node, &out)
		return out
	case "ancestor":
		var out []*xmlutil.Element
		for p := node.Parent(); p != nil; p = p.Parent() {
			out = append(out, p)
		}
		return out
	case "ancestor-or-self":
		out := []*xmlutil.Element{node}
		for p := node.Parent(); p != nil; p = p.Parent() {
			out = append(out, p)
		}
		return out
	case "following-sibling", "preceding-sibling":
		p := node.Parent()
		if p == nil {
			return nil
		}
		sibs := p.ChildElements()
		idx := -1
		for i, s := range sibs {
			if s == node {
				idx = i
				break
			}
		}
		if idx < 0 {
			return nil
		}
		if axis == "following-sibling" {
			return sibs[idx+1:]
		}
		// preceding-sibling in reverse document order per XPath.
		out := make([]*xmlutil.Element, 0, idx)
		for i := idx - 1; i >= 0; i-- {
			out = append(out, sibs[i])
		}
		return out
	case "attribute":
		out := make([]*xmlutil.Element, 0, len(node.Attrs))
		for _, a := range node.Attrs {
			// Attributes are modelled as synthetic leaf elements so the
			// uniform node-set machinery applies; their string-value is
			// the attribute value.
			ae := &xmlutil.Element{Name: a.Name}
			ae.SetText(a.Value)
			out = append(out, ae)
		}
		return out
	}
	return nil
}

func collectDescendants(node *xmlutil.Element, out *[]*xmlutil.Element) {
	for _, n := range node.Children {
		if c, ok := n.(*xmlutil.Element); ok {
			*out = append(*out, c)
			collectDescendants(c, out)
		}
	}
}

// nodeTestMatches applies a node test to a candidate element.
func nodeTestMatches(test string, node *xmlutil.Element) bool {
	switch test {
	case "node()":
		return true
	case "text()":
		// Our node-set model carries only elements; treat text() as
		// matching elements with no element children (their
		// string-value is the text).
		for _, n := range node.Children {
			if _, ok := n.(*xmlutil.Element); ok {
				return false
			}
		}
		return true
	case "*":
		return true
	default:
		// Name test; an optional prefix is ignored (documents in the
		// DAIX store are matched by local name).
		name := test
		if i := strings.Index(test, ":"); i >= 0 {
			name = test[i+1:]
		}
		return node.Name.Local == name
	}
}

// evalXPFunc dispatches the supported XPath core functions.
func evalXPFunc(n *xpFunc, ctx *xpContext) (XPathValue, error) {
	argVals := make([]XPathValue, len(n.args))
	for i, a := range n.args {
		v, err := evalXP(a, ctx)
		if err != nil {
			return XPathValue{}, err
		}
		argVals[i] = v
	}
	argStr := func(i int) string {
		if i < len(argVals) {
			return argVals[i].AsString()
		}
		return ctx.node.Text()
	}
	switch n.name {
	case "position":
		return numberValue(float64(ctx.position)), nil
	case "last":
		return numberValue(float64(ctx.size)), nil
	case "count":
		if len(argVals) != 1 || argVals[0].Kind != KindNodeSet {
			return XPathValue{}, fmt.Errorf("count() requires a node-set argument")
		}
		return numberValue(float64(len(argVals[0].Nodes))), nil
	case "name", "local-name":
		if len(argVals) == 1 && argVals[0].Kind == KindNodeSet {
			if len(argVals[0].Nodes) == 0 {
				return stringValue(""), nil
			}
			return stringValue(argVals[0].Nodes[0].Name.Local), nil
		}
		return stringValue(ctx.node.Name.Local), nil
	case "string":
		if len(argVals) == 0 {
			return stringValue(ctx.node.Text()), nil
		}
		return stringValue(argVals[0].AsString()), nil
	case "number":
		if len(argVals) == 0 {
			return numberValue(stringValue(ctx.node.Text()).AsNumber()), nil
		}
		return numberValue(argVals[0].AsNumber()), nil
	case "boolean":
		if len(argVals) != 1 {
			return XPathValue{}, fmt.Errorf("boolean() requires one argument")
		}
		return boolValue(argVals[0].AsBool()), nil
	case "not":
		if len(argVals) != 1 {
			return XPathValue{}, fmt.Errorf("not() requires one argument")
		}
		return boolValue(!argVals[0].AsBool()), nil
	case "true":
		return boolValue(true), nil
	case "false":
		return boolValue(false), nil
	case "contains":
		if len(argVals) != 2 {
			return XPathValue{}, fmt.Errorf("contains() requires two arguments")
		}
		return boolValue(strings.Contains(argStr(0), argStr(1))), nil
	case "starts-with":
		if len(argVals) != 2 {
			return XPathValue{}, fmt.Errorf("starts-with() requires two arguments")
		}
		return boolValue(strings.HasPrefix(argStr(0), argStr(1))), nil
	case "string-length":
		return numberValue(float64(len([]rune(argStr(0))))), nil
	case "normalize-space":
		return stringValue(strings.Join(strings.Fields(argStr(0)), " ")), nil
	case "concat":
		var b strings.Builder
		for i := range argVals {
			b.WriteString(argVals[i].AsString())
		}
		return stringValue(b.String()), nil
	case "substring":
		if len(argVals) < 2 || len(argVals) > 3 {
			return XPathValue{}, fmt.Errorf("substring() requires 2 or 3 arguments")
		}
		s := []rune(argVals[0].AsString())
		start := int(round(argVals[1].AsNumber())) - 1
		end := len(s)
		if len(argVals) == 3 {
			end = start + int(round(argVals[2].AsNumber()))
		}
		if start < 0 {
			start = 0
		}
		if start > len(s) {
			start = len(s)
		}
		if end > len(s) {
			end = len(s)
		}
		if end < start {
			end = start
		}
		return stringValue(string(s[start:end])), nil
	case "sum":
		if len(argVals) != 1 || argVals[0].Kind != KindNodeSet {
			return XPathValue{}, fmt.Errorf("sum() requires a node-set argument")
		}
		total := 0.0
		for _, nd := range argVals[0].Nodes {
			total += stringValue(nd.Text()).AsNumber()
		}
		return numberValue(total), nil
	case "floor", "ceiling", "round":
		if len(argVals) != 1 {
			return XPathValue{}, fmt.Errorf("%s() requires one argument", n.name)
		}
		x := argVals[0].AsNumber()
		switch n.name {
		case "floor":
			return numberValue(math.Floor(x)), nil
		case "ceiling":
			return numberValue(math.Ceil(x)), nil
		}
		return numberValue(round(x)), nil
	}
	return XPathValue{}, fmt.Errorf("unknown function %s()", n.name)
}

// round is XPath 1.0's round() (§4.4): the integer closest to x, a tie
// going toward positive infinity, and −0 for x in [−0.5, −0). NaN, the
// infinities and either zero are their own rounding. (math.Round takes
// a tie away from zero.)
func round(x float64) float64 {
	if x < 0 && x >= -0.5 {
		return math.Copysign(0, -1)
	}
	f := math.Floor(x)
	if x-f >= 0.5 { // exact: x and its floor are within one of each other
		return f + 1
	}
	return f
}
