package cpu

// SetBatchRefs sets how many references the issue loop pulls per refill
// and returns a function restoring the previous size. Tests use it to move
// the batch boundaries; it must not run concurrently with Run.
func SetBatchRefs(n int) (restore func()) {
	old := batchRefs
	batchRefs = n
	return func() { batchRefs = old }
}
