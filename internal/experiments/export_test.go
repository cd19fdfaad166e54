package experiments

// ForgetIRRows drops the memoized Table II/III rows, so a test that
// counts table2's or table3's operations runs their refinements again
// on every -count pass.
func ForgetIRRows() {
	irMu.Lock()
	irMemo = map[string]*irEntry{}
	irMu.Unlock()
}
