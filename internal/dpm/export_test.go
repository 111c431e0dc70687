package dpm

import "smartbadge/internal/stats"

// ScreenTimeouts exposes OptimalTimeout's search to the external tests: the
// candidate grid and which of its points the exact evaluation visits (keep
// is nil when every point is evaluated; both are nil when transitions are
// free and no search runs).
func ScreenTimeouts(dist stats.Distribution, c Costs) (grid []float64, keep []bool) {
	be := c.BreakEven()
	if be <= 0 {
		return nil, nil
	}
	grid = timeoutGrid(be)
	return grid, screenTimeouts(dist, c, grid)
}
