package serve

import "time"

// SetClock substitutes the detach-deadline clock, so tests step TTL expiry
// deterministically. Call before any traffic.
func (c *Core) SetClock(now func() time.Time) { c.now = now }
