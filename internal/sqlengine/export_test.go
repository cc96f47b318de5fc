package sqlengine

// Execution-path switches for the equivalence tests. They live on the
// engine's Database, so a test that owns its engine can flip them between
// executions and still run beside other tests. The streaming differential
// (stream_batch_test.go) imports rowset, which imports this package, so it
// cannot live inside it and reaches the switches through these.

// SetPlannerDisabled installs the tree interpreter (interp_test.go) as the
// oracle every SELECT block runs on, and has UPDATE and DELETE walk.
func (e *Engine) SetPlannerDisabled(off bool) {
	e.db.oracle = nil
	if off {
		e.db.oracle = (*Database).execSelectEnv
	}
}

// SetVectorDisabled forces the row operators even for vector plans.
func (e *Engine) SetVectorDisabled(off bool) { e.db.vectorOff = off }

// SetHashJoinDisabled has every join list its candidate pairs by scan.
func (e *Engine) SetHashJoinDisabled(off bool) { e.db.hashJoinOff = off }
