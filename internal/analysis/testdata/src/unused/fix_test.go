package main

// A declaration in a test file is a test root.
func testRoots() int {
	return onlyTested() + oracle() + emptyWhy() + reference{}.eval() + mentioned()
}
