package experiments

// ForgetTable3 drops Table3's memoized rows, so a test that counts
// table3's operations runs its refinements again on every -count pass.
func ForgetTable3() {
	table3Mu.Lock()
	table3Memo = map[string]*table3Entry{}
	table3Mu.Unlock()
}
