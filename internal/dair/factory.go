package dair

import (
	"context"

	"dais/internal/core"
	"dais/internal/rowset"
	"dais/internal/sqlengine"
)

// PortType QNames a factory request may ask the created resource to be
// served through (paper Fig. 3: "the QName of the port type with which
// a data service will provide access to the resulting data").
const (
	PortTypeSQLAccess         = "dair:SQLAccess"
	PortTypeSQLResponseAccess = "dair:SQLResponseAccess"
	PortTypeSQLRowsetAccess   = "dair:SQLRowsetAccess"
)

// SQLExecuteFactory implements SQLFactory.SQLExecuteFactory (paper
// §4.3, Figs. 3 and 5): it executes the expression against the source
// resource, wraps the outcome as a new service-managed SQLResponse data
// resource, registers it with the target data service and returns it.
// The caller (service layer) converts the resource into an EPR.
//
// The configuration document controls the derived resource's
// configurable properties; a nil config applies WS-DAI defaults.
func SQLExecuteFactory(ctx context.Context, src *SQLDataResource, target *core.DataService, expression string,
	params []sqlengine.Value, cfg *core.Configuration) (*SQLResponseResource, error) {
	if err := core.CheckReadable(src); err != nil {
		return nil, err
	}
	c := core.DefaultConfiguration()
	if cfg != nil {
		c = *cfg
	}
	if h, err := src.streamQuery(expression, params, c); err != nil {
		return nil, err
	} else if h != nil {
		// Streaming delivery: the resource is registered while the
		// engine is still producing, so GetTuples on derived rowset
		// resources can start answering immediately (paper Fig. 5's
		// third-party delivery without waiting for the full result).
		res := newStreamingResponseResource(src.AbstractName(), h, c)
		target.AddResource(res)
		return res, nil
	}
	data, err := src.SQLExecute(ctx, expression, params)
	if err != nil {
		return nil, err
	}
	res := NewSQLResponseResource(src.AbstractName(), data, c)
	if c.Sensitivity == core.Sensitive {
		// A Sensitive derived resource reflects later parent changes
		// (paper §4.2) by re-evaluating the expression on each access.
		expr, ps := expression, append([]sqlengine.Value(nil), params...)
		// Refreshes run on later accesses, after the creating request's
		// context is gone, so they execute under their own background
		// context.
		res.setRefresh(func() (*SQLResponseData, error) {
			return src.SQLExecute(context.Background(), expr, ps)
		})
	}
	target.AddResource(res)
	return res, nil
}

// SQLRowsetFactory implements ResponseFactory.SQLRowsetFactory (paper
// Fig. 5): from an existing SQLResponse resource it creates a new
// service-managed rowset resource holding the response's rowset in the
// requested dataset format, registers it with the target service and
// returns it. Count limits the number of rows copied into the derived
// resource (0 = all), mirroring the Count element of the
// SQLRowsetFactoryRequest message.
func SQLRowsetFactory(ctx context.Context, src *SQLResponseResource, target *core.DataService, formatURI string,
	count int, cfg *core.Configuration) (*SQLRowsetResource, error) {
	if err := core.TimeoutFault(ctx); err != nil {
		return nil, err
	}
	if err := core.CheckReadable(src); err != nil {
		return nil, err
	}
	if _, err := src.formats.Lookup(formatURI); err != nil {
		return nil, &core.InvalidDatasetFormatFault{Format: formatURI}
	}
	c := core.DefaultConfiguration()
	if cfg != nil {
		c = *cfg
	}
	buf, err := src.rowsetBuffer(ctx, count)
	if err != nil {
		return nil, err
	}
	res, err := NewSQLRowsetResource(src.AbstractName(), buf, formatURI, c)
	if err != nil {
		buf.Release()
		return nil, err
	}
	target.AddResource(res)
	return res, nil
}

// rowsetBuffer returns a buffer reference holding the response's first
// count rows (all of them when count <= 0). An unbounded copy of a
// streamed response shares its producing buffer: GetTuples pages are
// carved from it on demand and the full result never has to fit in RAM.
// Any other copy is the first count rows — waited for in the producing
// buffer, or taken from the executed response — in a buffer of its own.
func (r *SQLResponseResource) rowsetBuffer(ctx context.Context, count int) (*rowset.Buffer, error) {
	r.mu.RLock()
	h := r.stream
	r.mu.RUnlock()
	if h != nil && count <= 0 {
		h.buf.Retain()
		return h.buf, nil
	}
	var set *sqlengine.ResultSet
	if h != nil {
		var err error
		if set, err = h.buf.Window(ctx, 1, count); err != nil {
			return nil, execFault(err)
		}
	} else {
		whole, err := r.GetSQLRowset(0)
		if err != nil {
			return nil, err
		}
		if count <= 0 || count > len(whole.Rows) {
			count = len(whole.Rows)
		}
		set = &sqlengine.ResultSet{Columns: whole.Columns, Rows: whole.Rows[:count:count]}
	}
	return rowset.NewBuffer(rowset.NewSetSource(set), rowset.BufferConfig{}), nil
}

// StandardConfigurationMaps returns the ConfigurationMap entries a
// relational data service advertises: one per factory message type.
func StandardConfigurationMaps() []core.ConfigurationMapEntry {
	return []core.ConfigurationMapEntry{
		{
			MessageName: "SQLExecuteFactoryRequest",
			PortType:    PortTypeSQLResponseAccess,
			Default:     core.DefaultConfiguration(),
		},
		{
			MessageName: "SQLRowsetFactoryRequest",
			PortType:    PortTypeSQLRowsetAccess,
			Default:     core.DefaultConfiguration(),
		},
	}
}

// DefaultRowsetFormats lists the format URIs every relational service
// supports out of the box.
func DefaultRowsetFormats() []string {
	return []string{rowset.FormatCSV, rowset.FormatSQLRowset, rowset.FormatWebRowSet}
}
