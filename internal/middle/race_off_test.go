//go:build !race

package middle

const raceEnabled = false
