package obs

// Lookups reports how many instrument names r has resolved.
func Lookups(r *Registry) int { return r.lookups }
