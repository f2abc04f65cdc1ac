package core

import "clio/internal/entrymap"

// PendingLevel1 is the locator's level-1 Pending probe over the span that
// starts at spanStart, for tests in the external core_test package.
func (s *Service) PendingLevel1(spanStart int, ids []uint16) ([entrymap.MaxDegree / 8]byte, bool) {
	return (*locatorSource)(s).Pending(1, spanStart, ids)
}
