package finegrain

// AbortJob cancels the local crew's job cooperatively. Remote ranks
// finish their stripe of the job — their partials are collected and
// discarded with the rest of the aborted result; the master's rollback
// re-marks the descriptor stale everywhere, so the next dispatch
// rewrites whatever remote ranks computed.
func (p *Pool) AbortJob() { p.local.AbortJob() }
