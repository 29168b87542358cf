//go:build !race

package nas

const raceEnabled = false
