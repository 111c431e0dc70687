package obs

// Lookups reports how many instrument names r has resolved.
func Lookups(r *Registry) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.lookups
}
