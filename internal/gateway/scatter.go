package gateway

import (
	"context"
	"fmt"
	"strings"
	"sync"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/xmlutil"
)

// scatterQuery runs a GenericQuery addressed to a cluster alias on
// every healthy member resource concurrently (bounded by the fan-out
// cap) and merges the partial results deterministically: members are
// visited in their declared order, and the merged result concatenates
// shard results in that order, so a partitioned table whose shards each
// ORDER BY the partition key reassembles into exactly the rowset a
// single node holding all the rows would return.
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
func (g *Gateway) scatterQuery(ctx context.Context, spec ops.Spec, a *Alias, body *xmlutil.Element) (*xmlutil.Element, error) {
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
		result *xmlutil.Element
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
			req := spec.NewRequest(p.member.Resource)
			ops.GenericQueryMsg{Language: language, Expression: expression}.Encode(spec, req)
			resp, err := g.client.Invoke(ctx, p.member.Backend, spec, req)
			g.gm.request(p.member.Backend, spec.Op, telemetry.FaultCode(err))
			if err != nil {
				p.err = err
				return
			}
			kids := resp.ChildElements()
			if len(kids) == 0 {
				p.err = fmt.Errorf("gateway: empty GenericQuery response from %s", p.member.Backend)
				return
			}
			p.result = kids[0]
		}(p)
	}
	wg.Wait()
	g.gm.observeFanout(spec.Op, time.Since(start))
	results := make([]*xmlutil.Element, len(parts))
	for i, p := range parts {
		if p.err != nil {
			g.gm.countFanned(spec.Op, "error")
			return nil, p.err
		}
		g.gm.countFanned(spec.Op, "ok")
		results[i] = p.result
	}
	merged, err := mergeQueryResults(results)
	if err != nil {
		return nil, err
	}
	resp := spec.NewResponse()
	resp.AppendChild(merged)
	return resp, nil
}

// mergeQueryResults combines per-shard GenericQuery results into the
// element a single backend holding all the data would have produced.
// All shards must return the same result shape:
//
//   - SQLRowset: column metadata must agree; rows concatenate in shard
//     order and re-encode through the shared rowset codec.
//   - XMLSequence: item lists concatenate in shard order.
func mergeQueryResults(results []*xmlutil.Element) (*xmlutil.Element, error) {
	if len(results) == 1 {
		return results[0], nil
	}
	first := results[0]
	for _, r := range results[1:] {
		if r.Name != first.Name {
			return nil, fmt.Errorf("gateway: shards returned mixed result shapes (%s vs %s)", first.Name, r.Name)
		}
	}
	switch {
	case first.Name.Space == rowset.NSDAIR && first.Name.Local == "SQLRowset":
		return mergeRowsets(results)
	case first.Name.Space == ops.NSDAIX && first.Name.Local == "XMLSequence":
		return mergeSequences(results)
	}
	return nil, fmt.Errorf("gateway: cannot merge %s results across shards", first.Name)
}

func mergeRowsets(results []*xmlutil.Element) (*xmlutil.Element, error) {
	var merged *sqlengine.ResultSet
	for i, r := range results {
		rs, err := rowset.DecodeSQLRowsetElement(r)
		if err != nil {
			return nil, fmt.Errorf("gateway: shard %d rowset: %w", i, err)
		}
		if merged == nil {
			merged = rs
			continue
		}
		if err := sameColumns(merged.Columns, rs.Columns); err != nil {
			return nil, fmt.Errorf("gateway: shard %d: %w", i, err)
		}
		merged.Rows = append(merged.Rows, rs.Rows...)
	}
	return rowset.SQLRowsetElement(merged), nil
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

func mergeSequences(results []*xmlutil.Element) (*xmlutil.Element, error) {
	seq := xmlutil.NewElement(ops.NSDAIX, "XMLSequence")
	for _, r := range results {
		for _, item := range r.ChildElements() {
			seq.AppendChild(item)
		}
	}
	return seq, nil
}
