# ruff: noqa
"""Good fixture: a miniature staged translation path.  Level order is
L1_TLB -> L2_TLB -> WALK; the multi-page branch is not compared."""


class TranslationPath:
    def access(self, unit, walk, valid_mask):
        if self.multi_page:
            return self._access_multi_page(unit, walk, valid_mask)
        l1, l2 = self._tlbs(unit.size_class)
        if l1.lookup(unit.tag):
            return 0
        if l2.lookup(unit.tag):
            l1.insert(unit.tag, valid_mask())
            return 1
        latency = walk()
        l2.insert(unit.tag, valid_mask())
        l1.insert(unit.tag, valid_mask())
        return 1 + latency
