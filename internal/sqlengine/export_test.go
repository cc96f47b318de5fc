package sqlengine

// Execution-path toggles for the external test package: the streaming
// differential (stream_batch_test.go) imports rowset, which imports this
// package, so it cannot live inside it.

// SetPlannerDisabled forces every statement through the interpreter.
func SetPlannerDisabled(off bool) { disablePlanner = off }

// SetVectorDisabled forces the row operators even for vector plans.
func SetVectorDisabled(off bool) { disableVector = off }
