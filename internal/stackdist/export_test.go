package stackdist

// MustNewGrid is NewGrid that panics on bad configuration.
func MustNewGrid(blockBytes int, sizesBytes []int64, assocs []int) *Grid {
	g, err := NewGrid(blockBytes, sizesBytes, assocs)
	if err != nil {
		panic(err)
	}
	return g
}
