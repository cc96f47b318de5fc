package gateway

import (
	"context"
	"errors"
	"fmt"
	"strings"
	"sync"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

// scatterQuery runs a GenericQuery addressed to a cluster alias on
// every healthy member resource concurrently (bounded by the fan-out
// cap) and merges the partial results deterministically: members are
// visited in their declared order, and the merged result concatenates
// shard results in that order, so a partitioned table whose shards each
// ORDER BY the partition key reassembles into exactly the rowset a
// single node holding all the rows would return. Each member gets the
// consumer's request as written, readdressed (memberRequest), and its
// reply stays bytes (mergeReplies).
//
// Failure semantics: members on unhealthy backends are skipped — the
// federation answers from its surviving shards — but an error from a
// backend that was believed healthy fails the whole query (silently
// dropping a shard mid-flight would return a result that looks complete
// and isn't). No healthy member at all is an overload condition.
//
// An SQL statement other than a SELECT is an InvalidExpressionFault
// before any member is contacted: every member would apply it, and
// without a commit protocol across them one member's failure would leave
// the others changed. A text that does not parse goes to the members,
// whose fault names the syntax error as a single node's would.
func (g *Gateway) scatterQuery(ctx context.Context, spec ops.Spec, a *Alias, env *soap.Envelope) (*soap.Envelope, error) {
	body := env.BodyEntry()
	language := body.FindText(core.NSDAI, "GenericQueryLanguage")
	expression := body.FindText(core.NSDAI, "Expression")
	if language == dair.LanguageSQL92 {
		if st, _, err := sqlengine.Parse(expression); err == nil {
			if _, ok := st.(*sqlengine.SelectStmt); !ok {
				return nil, &core.InvalidExpressionFault{Detail: fmt.Sprintf(
					"%s on cluster alias %s: only SELECT runs across its members", strings.ToUpper(sqlengine.StatementKind(st)), a.Name)}
			}
		}
	}
	start := time.Now()

	type part struct {
		reply  []byte
		err    error
		member Member
	}
	parts := make([]*part, 0, len(a.Members))
	for _, m := range a.Members {
		if !g.health.isHealthy(m.Backend) {
			g.gm.countFanned(spec.Op, "skipped")
			continue
		}
		parts = append(parts, &part{member: m})
	}
	if len(parts) == 0 {
		return nil, &core.ServiceBusyFault{
			Reason:     "no healthy backend for alias " + a.Name,
			RetryAfter: time.Second,
		}
	}
	sem := make(chan struct{}, g.fanout)
	var wg sync.WaitGroup
	for _, p := range parts {
		wg.Add(1)
		go func(p *part) {
			defer wg.Done()
			sem <- struct{}{}
			defer func() { <-sem }()
			req, err := memberRequest(env, spec, p.member)
			if err != nil {
				p.err = err
				return
			}
			resp, err := g.relay(ctx, p.member.Backend, spec, req)
			if err != nil {
				p.err = err
				return
			}
			p.reply = resp.Wire
		}(p)
	}
	wg.Wait()
	g.gm.observeFanout(spec.Op, time.Since(start))
	replies := make([][]byte, len(parts))
	for i, p := range parts {
		if p.err != nil {
			g.gm.countFanned(spec.Op, "error")
			return nil, p.err
		}
		g.gm.countFanned(spec.Op, "ok")
		replies[i] = p.reply
	}
	var messageID string
	if h := env.FindHeader(wsaddr.NS, "MessageID"); h != nil {
		messageID = h.Text()
	}
	merged, err := mergeReplies(replies, messageID)
	if err != nil {
		return nil, err
	}
	return &soap.Envelope{Wire: merged}, nil
}

// memberRequest is the consumer's request as written, readdressed to
// one member: the text of its wsa:To, of its MessageID (a fresh one:
// each member's request is a message of its own) and of its
// DataResourceAbstractName replaced. Header and Body are what the
// client's interceptors read: the RequestID, which stays, and the name
// the request now addresses.
func memberRequest(env *soap.Envelope, spec ops.Spec, m Member) (*soap.Envelope, error) {
	t := soap.GetTokenizer()
	defer soap.PutTokenizer(t)
	var edits []xmlutil.Edit
	replace := func(t *xmlutil.Tokenizer, text string) error {
		e, err := t.ContentEdit(xmlutil.AppendEscaped(nil, text, false))
		edits = append(edits, e)
		return err
	}
	ok, err := soap.ReadToBody(t, env.Wire, func(t *xmlutil.Tokenizer) error {
		switch n := t.Name(); {
		case n.Matches(wsaddr.NS, "To"):
			return replace(t, m.Backend)
		case n.Matches(wsaddr.NS, "MessageID"):
			return replace(t, wsaddr.NewMessageID())
		}
		return t.Skip()
	})
	if err == nil && ok {
		err = t.EachChild(func(t *xmlutil.Tokenizer) error {
			if !t.Name().Matches(core.NSDAI, "DataResourceAbstractName") {
				return t.Skip()
			}
			return replace(t, m.Resource)
		})
	}
	if err != nil {
		return nil, fmt.Errorf("gateway: request to %s: %w", m.Backend, err)
	}
	return &soap.Envelope{
		Header: env.Header,
		Body:   []*xmlutil.Element{spec.NewRequest(m.Resource)},
		Wire:   xmlutil.ApplyEdits(env.Wire, edits...),
	}, nil
}

// mergeReplies combines the members' GenericQuery replies into the one
// a single backend holding all the data would have written: the first
// member's reply, its RelatesTo made relatesTo (the consumer's
// MessageID; none, where the consumer sent none), with every other
// member's result rows appended to its own, as the members wrote them,
// in member order. All members must return the same result shape:
//
//   - SQLRowset: column metadata must agree; the Row elements append.
//   - XMLSequence: the items append.
//
// A copied row or item declares the namespace bindings it uses that the
// first reply binds otherwise (xmlutil's CopyElement). A lone reply is
// passed on whatever its result, so single-member aliases are
// transparent.
func mergeReplies(replies [][]byte, relatesTo string) ([]byte, error) {
	t := soap.GetTokenizer()
	defer soap.PutTokenizer(t)
	// The first reply is read twice: to its result's columns, for the
	// shape, scope and metadata the other members' rows are checked
	// against and copied into; then for its edits.
	var rows []byte
	if len(replies) > 1 {
		n := 0
		for _, r := range replies[1:] {
			n += len(r) // room for every row, as each reply's share of it
		}
		rows = make([]byte, 0, n)
		ok, err := soap.ReadToBody(t, replies[0], nil)
		first, err := openResult(t, ok, err, 0)
		if err != nil {
			return nil, err
		}
		into := t.Scope(nil)
		if first.cols, err = resultColumns(t, first.name, nil, 0); err != nil {
			return nil, err
		}
		for i, r := range replies[1:] {
			if rows, err = appendShard(rows, r, i+1, first, into); err != nil {
				return nil, err
			}
		}
	}
	var edits []xmlutil.Edit
	ok, err := soap.ReadToBody(t, replies[0], func(t *xmlutil.Tokenizer) error {
		if !t.Name().Matches(wsaddr.NS, "RelatesTo") {
			return t.Skip()
		}
		if relatesTo == "" {
			from := t.TagOffset()
			if err := t.Skip(); err != nil {
				return err
			}
			edits = append(edits, xmlutil.Edit{From: from, To: t.Offset()})
			return nil
		}
		e, err := t.ContentEdit(xmlutil.AppendEscaped(nil, relatesTo, false))
		edits = append(edits, e)
		return err
	})
	if _, err := openResult(t, ok, err, 0); err != nil {
		return nil, err
	}
	if len(replies) > 1 {
		e, err := t.AppendEdit(rows)
		if err != nil {
			return nil, fmt.Errorf("gateway: shard 0: %w", err)
		}
		edits = append(edits, e)
	}
	return xmlutil.ApplyEdits(replies[0], edits...), nil
}

// result is what a shard's GenericQuery result says of its shape.
type result struct {
	name xmlutil.Name
	cols []sqlengine.ResultColumn // an SQLRowset's metadata
}

// openResult stands t on the start tag of a GenericQuery reply's result
// — the body entry's first child — once ReadToBody has read to the
// entry (ok, err).
func openResult(t *xmlutil.Tokenizer, ok bool, err error, shard int) (result, error) {
	if err == nil && ok {
		ok, err = t.FirstChild()
	}
	if err != nil {
		return result{}, fmt.Errorf("gateway: shard %d: %w", shard, err)
	}
	if !ok {
		return result{}, fmt.Errorf("gateway: shard %d: empty GenericQuery response", shard)
	}
	return result{name: t.Name()}, nil
}

// appendShard appends the rows (an XMLSequence's items) of shard i's
// reply to rows, once its result has been checked against the first's.
func appendShard(rows, reply []byte, i int, first result, into []xmlutil.Binding) ([]byte, error) {
	t := soap.GetTokenizer()
	defer soap.PutTokenizer(t)
	ok, err := soap.ReadToBody(t, reply, nil)
	r, err := openResult(t, ok, err, i)
	if err != nil {
		return rows, err
	}
	if r.name != first.name {
		return rows, fmt.Errorf("gateway: shards returned mixed result shapes (%s vs %s)", first.name, r.name)
	}
	switch {
	case first.name.Matches(rowset.NSDAIR, "SQLRowset"):
		cols, err := resultColumns(t, first.name, func(t *xmlutil.Tokenizer) (err error) {
			if !t.Name().Matches(rowset.NSDAIR, "Row") {
				return t.Skip()
			}
			rows, err = t.CopyElement(rows, into)
			return err
		}, i)
		if err != nil {
			return rows, err
		}
		if err := sameColumns(first.cols, cols); err != nil {
			return rows, fmt.Errorf("gateway: shard %d: %w", i, err)
		}
		return rows, nil
	case first.name.Matches(ops.NSDAIX, "XMLSequence"):
		err := t.EachChild(func(t *xmlutil.Tokenizer) (err error) {
			rows, err = t.CopyElement(rows, into)
			return err
		})
		if err != nil {
			return rows, fmt.Errorf("gateway: shard %d: %w", i, err)
		}
		return rows, nil
	}
	return rows, fmt.Errorf("gateway: cannot merge %s results across shards", first.name)
}

// errMetadataRead stops resultColumns after the Metadata.
var errMetadataRead = errors.New("metadata read")

// resultColumns reads an SQLRowset result's first Metadata into
// columns, and hands every other child to row, through the result's end
// tag; with row nil it stops after the Metadata. Any other result has
// no columns.
func resultColumns(t *xmlutil.Tokenizer, name xmlutil.Name, row func(*xmlutil.Tokenizer) error, shard int) ([]sqlengine.ResultColumn, error) {
	if !name.Matches(rowset.NSDAIR, "SQLRowset") {
		return nil, nil
	}
	var cols []sqlengine.ResultColumn
	meta := false
	err := t.EachChild(func(t *xmlutil.Tokenizer) error {
		if meta || !t.Name().Matches(rowset.NSDAIR, "Metadata") {
			if row == nil {
				return t.Skip()
			}
			return row(t)
		}
		meta = true
		err := t.EachChild(func(t *xmlutil.Tokenizer) error {
			if t.Name().Matches(rowset.NSDAIR, "Column") {
				name, _ := t.Attr("", "name")
				typ, _ := t.Attr("", "type")
				cols = append(cols, sqlengine.ResultColumn{Name: string(name), Type: rowset.TypeFromName(string(typ))})
			}
			return t.Skip()
		})
		if err == nil && row == nil {
			err = errMetadataRead
		}
		return err
	})
	if err == errMetadataRead {
		err = nil
	}
	if err == nil && !meta {
		err = errors.New("rowset: SQLRowset missing Metadata")
	}
	if err != nil {
		return nil, fmt.Errorf("gateway: shard %d rowset: %w", shard, err)
	}
	return cols, nil
}

func sameColumns(a, b []sqlengine.ResultColumn) error {
	if len(a) != len(b) {
		return fmt.Errorf("column count mismatch (%d vs %d)", len(a), len(b))
	}
	for i := range a {
		if a[i].Name != b[i].Name || a[i].Type != b[i].Type {
			return fmt.Errorf("column %d mismatch (%s %v vs %s %v)",
				i, a[i].Name, a[i].Type, b[i].Name, b[i].Type)
		}
	}
	return nil
}
