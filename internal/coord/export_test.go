package coord

// LocalRunning reports whether the local fallback Worker is running.
func (c *Coordinator) LocalRunning() bool {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.localRunning
}
