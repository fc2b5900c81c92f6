package grid

import "time"

// SetRespawnBackoff replaces the supervisor's respawn backoff bounds and
// returns the function that puts the old ones back. Tests raise the
// backoff to seconds so that a teardown which waits one out cannot pass
// for a slow host; grid_test reaches it from outside the package.
func SetRespawnBackoff(min, max time.Duration) (restore func()) {
	oldMin, oldMax := respawnBackoffMin, respawnBackoffMax
	respawnBackoffMin, respawnBackoffMax = min, max
	return func() { respawnBackoffMin, respawnBackoffMax = oldMin, oldMax }
}
