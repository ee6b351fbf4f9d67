//go:build race

package sitemgr

func init() { raceEnabled = true }
