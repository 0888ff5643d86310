package serve

import (
	"time"

	"repro/internal/continuous"
)

// SetClock substitutes the detach-deadline clock, so tests step TTL expiry
// deterministically. Call before any traffic.
func (c *Core) SetClock(now func() time.Time) { c.now = now }

// Hub is the continuous-query hub behind the core: the conformance suite's
// oracle for the backlog and answer a session should see.
func (c *Core) Hub() *continuous.Hub { return c.hub }
