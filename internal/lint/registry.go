package lint

// All returns every analyzer in the suite, in reporting order: the six
// AST-level checks, then the dataflow-aware layer (allocfree, atomicsafe,
// lockorder, leakcheck) guarding the serving hot paths' zero-allocation
// contracts and the module's concurrency invariants, then unused, which
// keeps exported dead code out of internal/.
func All() []*Analyzer {
	return []*Analyzer{
		WallclockAnalyzer,
		GlobalRandAnalyzer,
		MapOrderAnalyzer,
		LockSafeAnalyzer,
		CtxFirstAnalyzer,
		ErrCheckHotAnalyzer,
		AllocFreeAnalyzer,
		AtomicSafeAnalyzer,
		LockOrderAnalyzer,
		LeakCheckAnalyzer,
		UnusedAnalyzer,
	}
}
