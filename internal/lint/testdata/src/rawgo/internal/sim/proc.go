package sim

// A process hand-off built on channels is exactly what the coroutine
// engine replaced: outside the shard runtime files, internal/sim is held
// to the same rule as every other simulation package.
type proc struct {
	resume chan struct{} // want "channel type outside the sim shard runtime"
}

func (p *proc) park(parked chan struct{}) { // want "channel type outside the sim shard runtime"
	parked <- struct{}{} // want "channel send outside the sim shard runtime"
	<-p.resume           // want "channel receive outside the sim shard runtime"
}
