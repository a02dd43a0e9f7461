//go:build ignore

package main

func otherArch() int { return onlyOnOtherArch() }
