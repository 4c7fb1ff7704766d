package cache

// Occupancy returns the number of valid blocks currently resident.
func (c *Cache) Occupancy() int {
	n := 0
	for _, page := range c.pages {
		for i := range page {
			if page[i].valid() {
				n++
			}
		}
	}
	return n
}
