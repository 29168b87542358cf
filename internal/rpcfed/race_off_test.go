//go:build !race

package rpcfed

const raceEnabled = false
