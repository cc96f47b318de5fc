package main

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net/http"
	"net/http/httptest"
	"strings"
	"time"

	"dais/internal/core"
	"dais/internal/dair"
	"dais/internal/ops"
	"dais/internal/rowset"
	"dais/internal/service"
	"dais/internal/soap"
	"dais/internal/sqlengine"
	"dais/internal/telemetry"
	"dais/internal/wsaddr"
	"dais/internal/xmlutil"
)

// Direct timed calls into each layer's public functions, on the bytes
// and values of the exchanges the traced run just made and on the
// in-process engine, store and registries it ran against. Each figure
// is a median, in the unit the catalogue gives it. A probe that does
// not apply to the workload reports 0.

// timeCall is the median, over `batches`, of the mean time of n calls.
func timeCall(batches, n int, f func()) time.Duration {
	var per []float64
	for b := 0; b < batches; b++ {
		start := time.Now()
		for i := 0; i < n; i++ {
			f()
		}
		per = append(per, float64(time.Since(start))/float64(n))
	}
	return time.Duration(median(per))
}

func micros(d time.Duration) float64 { return float64(d) / float64(time.Microsecond) }

// probeExchanges is how many captured exchanges the envelope probes
// visit, spread evenly over the capture.
const probeExchanges = 60

// workloadTable is the table the engine probes scan.
func workloadTable(workload string) string {
	switch workload {
	case wlBulk:
		return "data"
	case wlScanAgg, wlWriteBeside:
		return "facts"
	}
	return "data_0"
}

func runProbes(ctx context.Context, workload string, cfg runConfig, ih *inprocHost, d *deployment,
	g generator, exchanges []exchange, out metricSet) error {
	n := ih.nodes[0]
	if err := envelopeProbes(n, exchanges, out); err != nil {
		return err
	}
	if err := engineProbes(ctx, workload, n, g, out); err != nil {
		return err
	}
	if err := rowsetProbes(ctx, workload, n, out); err != nil {
		return err
	}
	storeProbes(n, out)
	if err := telemetryProbe(workload, n, out); err != nil {
		return err
	}
	return gatewayProbes(ctx, workload, cfg, d, out)
}

// requestMsg is a typed request message: the service decodes it, the
// client encodes it.
type requestMsg interface {
	ops.Msg
	Decode(ops.Spec, *xmlutil.Element) error
}

// decoderFor returns the typed request message of an operation, for
// the ones the workloads send with a body worth decoding.
func decoderFor(op string) requestMsg {
	switch op {
	case "SQLExecute":
		return &ops.SQLExecuteMsg{}
	case "SQLExecuteFactory":
		return &ops.SQLFactoryMsg{}
	case "GenericQuery":
		return &ops.GenericQueryMsg{}
	case "GetSQLRowset":
		return &ops.IndexMsg{}
	case "SQLRowsetFactory":
		return &ops.RowsetFactoryMsg{}
	case "GetTuples":
		return &ops.PageMsg{}
	case "XPathExecute":
		return &ops.ExprMsg{}
	}
	return nil
}

// envelopeProbes times the fixed per-exchange work — envelope parse
// and marshal, XML parse and encode, WS-Addressing headers, message
// decode and encode, name resolution — on captured exchanges.
func envelopeProbes(n *node, exchanges []exchange, out metricSet) error {
	names := []string{"soap.parse_us", "soap.marshal_us", "xmlutil.parse_us_per_kb", "xmlutil.encode_us_per_kb",
		"wsaddr.headers_us", "ops.decode_us", "ops.encode_us", "core.resolve_us"}
	vals := map[string][]float64{}
	step := max(1, len(exchanges)/probeExchanges)
	for i := 0; i < len(exchanges); i += step {
		ex := exchanges[i]
		var reqEnv, respEnv *soap.Envelope
		var err error
		parse := timeCall(1, 1, func() {
			if reqEnv, err = soap.ParseEnvelope(ex.req); err == nil {
				respEnv, err = soap.ParseEnvelope(ex.resp)
			}
		})
		if err != nil {
			return fmt.Errorf("probe: captured %s exchange does not parse: %w", ex.action, err)
		}
		vals["soap.parse_us"] = append(vals["soap.parse_us"], micros(parse))
		vals["soap.marshal_us"] = append(vals["soap.marshal_us"], micros(timeCall(1, 1, func() {
			reqEnv.Marshal()
			respEnv.Marshal()
		})))

		kb := float64(len(ex.resp)) / 1024
		var root *xmlutil.Element
		xparse := timeCall(1, 1, func() { root, err = xmlutil.ParseBytes(ex.resp) })
		if err != nil {
			return fmt.Errorf("probe: captured %s response does not parse: %w", ex.action, err)
		}
		vals["xmlutil.parse_us_per_kb"] = append(vals["xmlutil.parse_us_per_kb"], micros(xparse)/kb)
		vals["xmlutil.encode_us_per_kb"] = append(vals["xmlutil.encode_us_per_kb"],
			micros(timeCall(1, 1, func() { xmlutil.Marshal(root) }))/kb)

		// One exchange's addressing work: request headers built and
		// attached, read back on the server, reply headers attached.
		vals["wsaddr.headers_us"] = append(vals["wsaddr.headers_us"], micros(timeCall(1, 4, func() {
			env := soap.NewEnvelope(reqEnv.BodyEntry())
			wsaddr.RequestHeaders(wsaddr.NewEPR(n.base+"/sql"), ex.action).Attach(env)
			reply := soap.NewEnvelope(respEnv.BodyEntry())
			wsaddr.ReplyHeaders(wsaddr.FromEnvelope(env), ex.action+"Response").Attach(reply)
		})))

		spec, ok := ops.ByAction(ex.action)
		body := reqEnv.BodyEntry()
		if !ok || body == nil {
			continue
		}
		name := ops.AbstractNameText(body)
		vals["core.resolve_us"] = append(vals["core.resolve_us"], micros(timeCall(1, 16, func() {
			n.sqlSvc.Resolve(name) //nolint:errcheck // a derived resource may be gone; the lookup is what is timed
		})))
		msg := decoderFor(spec.Op)
		if msg == nil {
			continue
		}
		vals["ops.decode_us"] = append(vals["ops.decode_us"], micros(timeCall(1, 4, func() { err = msg.Decode(spec, body) })))
		if err != nil {
			return fmt.Errorf("probe: decode %s: %w", spec.Op, err)
		}
		vals["ops.encode_us"] = append(vals["ops.encode_us"], micros(timeCall(1, 4, func() {
			msg.Encode(spec, spec.NewRequest(name))
		})))
	}
	for _, name := range names {
		out[name] = median(vals[name])
	}
	return nil
}

// probeBudget bounds how long the statement probes may execute
// sampled statements (the heaviest scan_agg template runs for a fifth
// of a second).
const probeBudget = 500 * time.Millisecond

// engineProbes times parse, prepare, execute and DML on the next
// statements of the traced stream, the cost of rebuilding column
// chunks after a DML, and the streaming producer per row.
func engineProbes(ctx context.Context, workload string, n *node, g generator, out metricSet) error {
	sess := n.eng.NewSession()
	var parse, prepare, execute, dml []float64
	start := time.Now()
	for i := 0; i < 90 && time.Since(start) < probeBudget; i++ {
		op := g.Next()
		if op.SQL == "" {
			continue
		}
		parse = append(parse, micros(timeCall(1, 4, func() { sqlengine.Parse(op.SQL) })))   //nolint:errcheck // generated SQL parses
		prepare = append(prepare, micros(timeCall(1, 4, func() { n.eng.Prepare(op.SQL) }))) //nolint:errcheck // as above
		var err error
		d := timeCall(1, 1, func() { _, err = sess.Execute(op.SQL, op.Params...) })
		if err != nil {
			return fmt.Errorf("probe: execute %q: %w", op.SQL, err)
		}
		if op.Kind == kDML {
			dml = append(dml, micros(d))
		} else {
			execute = append(execute, micros(d))
		}
	}
	out["sqlengine.parse_us"] = median(parse)
	out["sqlengine.prepare_us"] = median(prepare)
	out["sqlengine.execute_us"] = median(execute)
	out["sqlengine.dml_us"] = median(dml)

	// Chunk rebuild: the first full scan after a DML rebuilds the
	// table's column chunks; steady-state scans reuse them.
	table := workloadTable(workload)
	scan := fmt.Sprintf(`SELECT COUNT(*), SUM(num) FROM %s`, table)
	run := func(sql string) func() {
		return func() {
			if _, err := sess.Execute(sql); err != nil {
				panic(fmt.Sprintf("probe statement %q: %v", sql, err)) // a fixed statement over a loaded table
			}
		}
	}
	steady := timeCall(3, 1, run(scan))
	var rebuilds []float64
	for i := 0; i < 3; i++ {
		run(fmt.Sprintf(`UPDATE %s SET num = num WHERE id = %d`, table, i))()
		rebuilds = append(rebuilds, micros(timeCall(1, 1, run(scan))-steady))
	}
	out["sqlengine.chunk_rebuild_us"] = max(0, median(rebuilds))

	rows := 0
	streamed := timeCall(1, 1, func() {
		rs, err := sess.ExecuteStream(ctx, fmt.Sprintf(`SELECT * FROM %s`, table))
		if err != nil {
			return
		}
		defer rs.Close()
		for {
			if _, err := rs.Next(); err != nil {
				if !errors.Is(err, io.EOF) {
					rows = 0
				}
				return
			}
			rows++
		}
	})
	out["sqlengine.stream_ns_per_row"] = 0
	if rows > 0 {
		out["sqlengine.stream_ns_per_row"] = float64(streamed) / float64(rows)
	}
	return nil
}

// rowsetProbes times the SQLRowset codec and a buffer window read on
// one bulk-sized window of the workload's table.
func rowsetProbes(ctx context.Context, workload string, n *node, out metricSet) error {
	res, err := n.eng.NewSession().Execute(fmt.Sprintf(`SELECT * FROM %s WHERE id < %d`, workloadTable(workload), bulkWindow))
	if err != nil {
		return fmt.Errorf("probe: window query: %w", err)
	}
	set := res.Set
	rows := float64(len(set.Rows))
	if rows == 0 {
		return fmt.Errorf("probe: window query returned no rows")
	}
	codec := rowset.SQLRowsetCodec{}
	var data []byte
	enc := timeCall(3, 1, func() { data, err = codec.Encode(set) })
	if err != nil {
		return fmt.Errorf("probe: encode window: %w", err)
	}
	dec := timeCall(3, 1, func() { _, err = codec.Decode(data) })
	if err != nil {
		return fmt.Errorf("probe: decode window: %w", err)
	}
	out["rowset.encode_ns_per_row"] = float64(enc) / rows
	out["rowset.decode_ns_per_row"] = float64(dec) / rows
	out["rowset.bytes_per_row"] = float64(len(data)) / rows

	buf := rowset.NewBuffer(rowset.NewSetSource(set), rowset.BufferConfig{})
	defer buf.Release()
	if _, err := buf.FinalCount(ctx); err != nil {
		return fmt.Errorf("probe: buffer: %w", err)
	}
	out["rowset.buffer_window_us"] = micros(timeCall(5, 1, func() { buf.Window(ctx, 1, bulkWindow) })) //nolint:errcheck // production finished without error above
	return nil
}

// storeProbes times the XML store and the WSRF registry directly.
func storeProbes(n *node, out metricSet) {
	out["xmldb.xpath_us"] = 0
	if docs, err := n.store.DocumentCount(""); err == nil && docs > 0 {
		out["xmldb.xpath_us"] = micros(timeCall(5, 8, func() {
			n.store.XPathQuery("", `//book[price>40]/title`) //nolint:errcheck // a fixed, valid expression
		}))
	}
	reg, id := n.sqlEp.WSRF(), n.sqlRes.AbstractName()
	out["wsrf.get_property_us"] = micros(timeCall(5, 8, func() {
		reg.GetResourceProperty(id, core.NSDAI, "Readable") //nolint:errcheck // the standing resource exists
	}))
	far := time.Now().Add(time.Hour)
	out["wsrf.set_termination_us"] = micros(timeCall(5, 8, func() {
		reg.SetTerminationTime(id, &far) //nolint:errcheck // the standing resource exists
	}))
}

// telemetryProbe dispatches one crafted SQLExecute exchange straight
// into two endpoints over the same service — one with an observer, one
// with none — alternately, and reports the difference of the medians:
// what instrumentation costs per exchange.
func telemetryProbe(workload string, n *node, out metricSet) error {
	spec, _ := ops.ByAction(ops.SQLExecute.Action)
	body := spec.NewRequest(n.sqlRes.AbstractName())
	ops.SQLExecuteMsg{Expr: ops.SQLExpression{Expression: fmt.Sprintf(`SELECT id FROM %s WHERE id = 1`, workloadTable(workload))}}.Encode(spec, body)
	env := soap.NewEnvelope(body)
	wsaddr.RequestHeaders(wsaddr.NewEPR(n.base+"/sql"), spec.Action).Attach(env)
	payload := string(env.Marshal())

	bare := service.NewEndpoint(n.sqlSvc, service.WithTelemetry(nil))
	observed := service.NewEndpoint(n.sqlSvc, service.WithTelemetry(telemetry.NewObserver(telemetry.WithSlowThreshold(0))))
	dispatch := func(ep *service.Endpoint) (time.Duration, error) {
		req := httptest.NewRequest(http.MethodPost, "/sql", strings.NewReader(payload))
		req.Header.Set("SOAPAction", `"`+spec.Action+`"`)
		rec := httptest.NewRecorder()
		start := time.Now()
		ep.ServeHTTP(rec, req)
		d := time.Since(start)
		if rec.Code != http.StatusOK {
			return 0, fmt.Errorf("probe: telemetry exchange answered HTTP %d: %s", rec.Code, rec.Body.String())
		}
		return d, nil
	}
	var with, without []float64
	for i := 0; i < 400; i++ {
		a, err := dispatch(observed)
		if err != nil {
			return err
		}
		b, err := dispatch(bare)
		if err != nil {
			return err
		}
		with, without = append(with, micros(a)), append(without, micros(b))
	}
	out["telemetry.overhead_us"] = max(0, median(with)-median(without))
	return nil
}

// gatewayProbes measures what the gateway hop adds: the same exchange
// through the gateway and straight to the owning backend, alternated.
func gatewayProbes(ctx context.Context, workload string, cfg runConfig, d *deployment, out metricSet) error {
	out["gateway.added_p50_us"], out["gateway.scatter_added_p50_us"] = 0, 0
	if workload != wlGateway {
		return nil
	}
	c := newClient()
	timed := func(f func() error) (float64, error) {
		start := time.Now()
		err := f()
		return micros(time.Since(start)), err
	}
	var via, direct, scatterVia, scatterDirect []float64
	for i := 0; i < 150; i++ {
		lo := (i * 37) % (cfg.sz.PointRows - pointSpan)
		sql := fmt.Sprintf(`SELECT id, payload, num FROM data_0 WHERE id BETWEEN %d AND %d`, lo, lo+pointSpan-1)
		for _, leg := range []struct {
			into *[]float64
			call func() error
		}{
			{&via, func() error { _, err := c.SQLExecute(ctx, d.sql[0], sql, nil, ""); return err }},
			{&direct, func() error { _, err := c.SQLExecute(ctx, d.backends[0], sql, nil, ""); return err }},
			{&scatterVia, func() error { _, err := c.GenericQuery(ctx, d.alias, dair.LanguageSQL92, sql); return err }},
			{&scatterDirect, func() error { _, err := c.GenericQuery(ctx, d.backends[0], dair.LanguageSQL92, sql); return err }},
		} {
			us, err := timed(leg.call)
			if err != nil {
				return fmt.Errorf("probe: gateway leg: %w", err)
			}
			*leg.into = append(*leg.into, us)
		}
	}
	out["gateway.added_p50_us"] = median(via) - median(direct)
	out["gateway.scatter_added_p50_us"] = median(scatterVia) - median(scatterDirect)
	return nil
}
