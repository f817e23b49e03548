//go:build race

package scanner

// raceEnabled reports a build with the race detector, whose sync.Pool
// drops pooled objects at random: allocation counts through pooled
// buffers then vary from run to run.
const raceEnabled = true
