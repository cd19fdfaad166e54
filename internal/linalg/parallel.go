package linalg

// SetWorkers does nothing and returns 1. Every solver loop runs
// serially in its caller's goroutine; concurrency lives in the runner's
// jobs and the service's job pool, across independent solves.
//
// Deprecated: remains only for perfbench's two SetWorkers(1) calls and
// goes once they are dropped.
func SetWorkers(n int) int { return 1 }
