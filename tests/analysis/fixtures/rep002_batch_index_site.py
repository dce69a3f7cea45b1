"""REP002 fixture: a HashIndex batch primitive with no opening fault site."""


class HashIndex:
    def add_rows(self, rows):
        for rowid, row in rows:            # no faults.hit(...) first
            self.entries[row["k"]] = rowid
