package main

import (
	"context"
	"fmt"
	"math"
	"time"

	"dais/internal/client"
	"dais/internal/dair"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
)

// Executing one generated operation through the public client and
// checking its reply. Every operation is checked, not just timed: a
// wrong answer is a failed operation.

// opTimeout bounds one operation; an operation that hits it failed.
const opTimeout = 30 * time.Second

// execOp runs op against the deployment and returns the rows delivered
// to the consumer.
func execOp(ctx context.Context, c *client.Client, d *deployment, op Op) (rows int, err error) {
	ctx, cancel := context.WithTimeout(ctx, opTimeout)
	defer cancel()
	ref := d.xml
	if !op.OnXML {
		ref = d.sql[op.Target%len(d.sql)]
	}
	switch op.Kind {
	case kSQLExecute:
		res, err := c.SQLExecute(ctx, ref, op.SQL, op.Params, "")
		if err != nil {
			return 0, err
		}
		return checkSet(res.Set, op.Want)

	case kDML:
		res, err := c.SQLExecute(ctx, ref, op.SQL, op.Params, "")
		if err != nil {
			return 0, err
		}
		if res.UpdateCount != op.Want.UpdateCount {
			return 0, fmt.Errorf("update count %d, want %d", res.UpdateCount, op.Want.UpdateCount)
		}
		return 0, nil

	case kSQLIndirect:
		derived, err := c.SQLExecuteFactory(ctx, ref, op.SQL, op.Params, nil)
		if err != nil {
			return 0, err
		}
		set, err := c.GetSQLRowset(ctx, derived, 0)
		if err != nil {
			return 0, fmt.Errorf("fetch: %w", err)
		}
		if err := c.WSRFDestroy(ctx, derived); err != nil {
			return 0, fmt.Errorf("destroy: %w", err)
		}
		return checkSet(set, op.Want)

	case kBulkSession:
		return bulkSession(ctx, c, ref, op)

	case kXPath:
		items, err := c.XPathExecute(ctx, ref, op.Expr)
		if err != nil {
			return 0, err
		}
		if len(items) != op.Want.Rows || len(items) == 0 {
			return 0, fmt.Errorf("xpath returned %d items, want %d", len(items), op.Want.Rows)
		}
		return len(items), nil

	case kGetProperty:
		props, err := c.GetResourceProperty(ctx, ref, op.Expr)
		if err != nil {
			return 0, err
		}
		if len(props) == 0 {
			return 0, fmt.Errorf("empty property reply")
		}
		return 0, nil

	case kSetTermTime:
		// Far in the future: exercises the lifetime write path without
		// letting the reaper near the standing resources.
		tt := time.Now().Add(time.Hour)
		got, err := c.SetTerminationTime(ctx, ref, &tt)
		if err != nil {
			return 0, err
		}
		if got == nil {
			return 0, fmt.Errorf("no termination time in reply")
		}
		return 0, nil

	case kGenericQuery:
		el, err := c.GenericQuery(ctx, d.alias, dair.LanguageSQL92, op.SQL)
		if err != nil {
			return 0, err
		}
		set, err := rowset.DecodeSQLRowsetElement(el)
		if err != nil {
			return 0, fmt.Errorf("scatter reply: %w", err)
		}
		return checkSet(set, op.Want)
	}
	return 0, fmt.Errorf("unknown op kind %d", op.Kind)
}

// bulkSession is the paper's Fig. 5 path: a factory-created response
// resource, a rowset resource derived from it, the whole rowset pulled
// in windows with two in flight, both derived resources destroyed.
func bulkSession(ctx context.Context, c *client.Client, ref client.ResourceRef, op Op) (int, error) {
	respRef, err := c.SQLExecuteFactory(ctx, ref, op.SQL, op.Params, nil)
	if err != nil {
		return 0, err
	}
	rowsetRef, err := c.SQLRowsetFactory(ctx, respRef, "", 0, nil)
	if err != nil {
		return 0, fmt.Errorf("rowset factory: %w", err)
	}
	var rows int
	var idSum float64
	next := int64(-1)
	err = c.FetchPages(ctx, rowsetRef, client.FetchOptions{Chunks: 2, ChunkRows: bulkWindow},
		func(set *sqlengine.ResultSet) error {
			// Checked per fetch: ids arrive dense and in order.
			for _, row := range set.Rows {
				if next >= 0 && row[0].I != next {
					return fmt.Errorf("row %d: id %d, want %d", rows, row[0].I, next)
				}
				next = row[0].I + 1
				idSum += float64(row[0].I)
				rows++
			}
			return nil
		})
	if err != nil {
		return 0, fmt.Errorf("fetch: %w", err)
	}
	if err := c.DestroyDataResource(ctx, rowsetRef); err != nil {
		return 0, fmt.Errorf("destroy rowset: %w", err)
	}
	if err := c.DestroyDataResource(ctx, respRef); err != nil {
		return 0, fmt.Errorf("destroy response: %w", err)
	}
	if rows != op.Want.Rows || idSum != op.Want.IDSum {
		return 0, fmt.Errorf("fetched %d rows (id sum %.0f), want %d (%.0f)", rows, idSum, op.Want.Rows, op.Want.IDSum)
	}
	return rows, nil
}

// checkSet applies an oracle to a decoded rowset.
func checkSet(set *sqlengine.ResultSet, w want) (int, error) {
	if set == nil {
		return 0, fmt.Errorf("reply carried no decodable rowset")
	}
	if len(set.Rows) != w.Rows {
		return 0, fmt.Errorf("%d rows, want %d", len(set.Rows), w.Rows)
	}
	if w.CheckIDs {
		var sum float64
		for _, row := range set.Rows {
			sum += num(row[0])
		}
		if sum != w.IDSum {
			return 0, fmt.Errorf("id checksum %.0f, want %.0f", sum, w.IDSum)
		}
	}
	if w.CheckAgg {
		var sum float64
		for _, row := range set.Rows {
			sum += num(row[w.CountCol])
		}
		if sum < w.CountLo || sum > w.CountHi {
			return 0, fmt.Errorf("count %.0f outside [%.0f, %.0f]", sum, w.CountLo, w.CountHi)
		}
	}
	if w.CheckSum {
		var sum float64
		for _, row := range set.Rows {
			sum += num(row[w.SumCol])
		}
		if math.Abs(sum-w.Sum) > 1e-9*math.Max(1, math.Abs(w.Sum)) {
			return 0, fmt.Errorf("sum %v, want %v", sum, w.Sum)
		}
	}
	if w.CheckFirst && set.Rows[0][0].I != w.FirstID {
		return 0, fmt.Errorf("first id %d, want %d", set.Rows[0][0].I, w.FirstID)
	}
	return len(set.Rows), nil
}

// num reads a numeric cell whatever its SQL type.
func num(v sqlengine.Value) float64 {
	if v.Type == sqlengine.TypeDouble {
		return v.F
	}
	return float64(v.I)
}
