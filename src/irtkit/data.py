"""Ingestion of marked exam responses into indexed binary datasets.

Raw rows carry partial-credit scores (marks awarded out of marks
available). A response counts as correct only when the student earned
strictly more than half the available marks; the loaders check each
block's marks and keep only that 0/1 outcome, beside the id codes (25
bytes a response while a file loads). A loader returns a Dataset, once
`build_dataset`'s row checks pass: it keeps each student's class in
class_of, not each row's, so 17 bytes a response. A Dataset is built
two ways: `build_dataset` checks a file's columns, and the constructor
takes columns that are already valid (the synthetic generator's, a
checkpoint's index). Everything downstream works on the sparse triplet
layout (student index, question index, outcome).

CSV files are read and written as columns, so no Python object is kept
per row. A loader first tries the byte path: one numpy scan finds the
commas and line ends of a block of whole lines in order, and the field
bounds follow from their positions; it parses the mark columns as ASCII
digits and looks each id up by its bytes in a direct-mapped hash table
of the ids met so far, so only ids not met before, or whose slot another
id holds, become Python strings. Its grammar is a regular file of
printable ASCII without '"', with '\n' line ends ('\r' only directly
before '\n'), the exact header, mark fields of 1-18 digits that pass the
mark checks, and id fields of at most 64 bytes and no longer than
`csv.field_size_limit()`. At the first block outside it, or
with an error, the byte path stops and the csv path reads on from that
block: `csv.reader` tokenizes a block of records at a time, and ids,
marks and checks are handled per column. Only the csv path raises a
ParseError: it walks a block whose marks fail again, record by record,
to name its first bad row. Both skip one leading UTF-8 byte-order mark.

The stable sorts over response rows (grouping a student's rows for the
split, finding repeated cells for the row checks) sort and compare uint8
or uint16 codes when the id counts fit 16 bits, so numpy takes its radix
sort; wider codes keep the int64 key. The split's per-student draws are
Generator.choice's, made in bulk by `choice_per_group`.
"""

from __future__ import annotations

import codecs
import csv
import io
import operator
import os
import re
from dataclasses import dataclass, replace
from functools import partial
from itertools import chain, islice, repeat

import numpy as np

from .models import require_count

RAW_HEADER = ["student_id", "question_id", "class_id", "marks_awarded", "marks_available"]
BINARY_HEADER = ["student_id", "question_id", "class_id", "y"]

# Class label assigned to raw rows with an empty class_id field.
NO_CLASS = "__none__"
_READ_BLOCK = 8192         # records the csv path turns into columns at a time
_READ_BYTES = 1 << 17      # bytes of whole lines the byte path turns into columns at a time
_KEY_BYTES = 64            # the byte path's longest id field
_GOLDEN = np.uint64(0x9E3779B97F4A7C15)   # 2**64 / golden ratio: Knuth's multiplicative hashing
_MIX = _GOLDEN ** np.arange(_KEY_BYTES // 8, dtype=np.uint64)   # key word weights of a hash
_FIRST_SLOTS = 1 << 12     # slots of an id column's first table; a table grows to 8 slots an entry or more
_LOW_BYTES = np.array([[(1 << 8 * min(max(n - 8 * w, 0), 8)) - 1 for n in range(_KEY_BYTES + 1)]
                       for w in range(_KEY_BYTES // 8)], "<u8")   # [w, n]: the bytes of word w in an n-byte key
_WRITE_CHARS = 1 << 17     # bytes of output write_binary_csv assembles at a time
_QUOTED = re.compile(r'[,"\r\n]')   # the characters of an id that csv.writer quotes
_FLOYD_LIMIT = 10_000      # Generator.choice draws by Floyd's method up to this population (or k <= n // 50)
_CHOICE_DRAWS = 1 << 13    # bounded draws choice_per_group makes in bulk at a time (plus one group's)
_BULK_CHOICE = np.lib.NumpyVersion(np.__version__).version.startswith("2.4.")   # _floyd reproduces 2.4's choice
_COLUMNS = (np.int64, np.int64, np.int64, np.int8)   # a file's student, question and class codes and y, as it loads


class ParseError(ValueError):
    """An input file that violates the expected schema, at `line` (1 for the header) of the file `path`."""

    def __init__(self, message: str, line: int | None = None, path: str | None = None):
        super().__init__(message)
        self.line, self.path = None if line is None else int(line), path


@dataclass(frozen=True)
class Dataset:
    """Immutable triplet store of binary responses with id interning.

    Indices are dense, assigned in first-appearance order of the opaque
    ids. Not every (student, question) cell is observed; class_of maps
    every student index to a class index. The counts are the lengths of
    the id tables. With no responses, a Dataset is the index a
    checkpoint stores.
    """

    student_idx: np.ndarray
    question_idx: np.ndarray
    y: np.ndarray
    class_of: np.ndarray
    student_ids: tuple
    question_ids: tuple
    class_ids: tuple

    def __post_init__(self):
        for arr in (self.student_idx, self.question_idx, self.y, self.class_of):
            arr.setflags(write=False)

    @property
    def num_students(self) -> int:
        return len(self.student_ids)

    @property
    def num_questions(self) -> int:
        return len(self.question_ids)

    @property
    def num_classes(self) -> int:
        return len(self.class_ids)

    @property
    def n_responses(self) -> int:
        return int(self.student_idx.shape[0])

    def __len__(self) -> int:
        return self.n_responses

    def select(self, rows: np.ndarray) -> "Dataset":
        """The responses at the given positions, or where a boolean mask is True; the rest is shared."""
        return replace(self, student_idx=self.student_idx[rows], question_idx=self.question_idx[rows],
                       y=self.y[rows])

    def keep_students(self, students: np.ndarray) -> "Dataset":
        """Every response of the given sorted students, in row order.

        The kept students are densely reindexed in the given order, with
        their class_of entries and ids; question and class tables are shared.
        """
        students = np.asarray(students, dtype=np.int64)
        remap = np.full(self.num_students, -1, dtype=np.int64)
        remap[students] = np.arange(students.size)
        student_idx = remap[self.student_idx]
        rows = student_idx >= 0
        return replace(self, student_idx=student_idx[rows], question_idx=self.question_idx[rows],
                       y=self.y[rows], class_of=self.class_of[students],
                       student_ids=tuple(map(self.student_ids.__getitem__, students.tolist())))


def _interner(canonical):
    """(codes, ids) of one id column: codes(texts) numbers the ids in first-appearance order in ids.

    Each distinct field text is turned into its id (`canonical`) once;
    rows are coded through a text -> code dict.
    """
    ids, code_of = {}, {}   # id -> code, field text -> code of its id

    def codes(texts) -> np.ndarray:
        out = np.fromiter(map(code_of.get, texts, repeat(-1)), np.int64, len(texts))
        miss = np.flatnonzero(out < 0)
        if miss.size:
            fresh = list(map(texts.__getitem__, miss.tolist()))
            for text in dict.fromkeys(fresh):
                code_of[text] = ids.setdefault(canonical(text), len(ids))
            out[miss] = np.fromiter(map(code_of.__getitem__, fresh), np.int64, miss.size)
        return out

    return codes, ids


def _raw_rules(awarded, available):
    """A raw block's int8 outcome 2 * awarded > available, as the overflow-free awarded > available // 2, and its
    checks in the order a row is checked."""
    return (awarded > available // 2).astype(np.int8), [(available < 1, "marks_available must be >= 1"),
                                                        (awarded < 0, "marks_awarded must be >= 0"),
                                                        (awarded > available, "marks_awarded exceeds marks_available")]


def _binary_rules(y):
    """A binary block's y as int8, and its check."""
    return y.astype(np.int8), [((y != 0) & (y != 1), "y must be 0 or 1")]


def _marks(columns: list, lines: np.ndarray, fields: list, rules, too_big) -> np.ndarray:
    """A csv block's outcome from its mark columns, parsed whole as int() of each stripped text.

    A block that fails is walked again, record by record, field by field
    and check by check, to raise the ParseError of its first bad row.
    """
    try:
        y, checks = rules(*(np.fromiter(map(int, map(str.strip, col)), np.int64, len(col)) for col in columns))
        if not any(bad.any() for bad, _ in checks):
            return y
    except (ValueError, OverflowError):
        pass
    for line, texts in zip(lines.tolist(), zip(*columns)):
        values = []
        for field, text in zip(fields, map(str.strip, texts)):
            try:
                values.append(np.int64(int(text)))
            except ValueError:
                raise ParseError(f"non-integer {field} {text!r} at line {line}", line) from None
            except OverflowError:
                message = too_big or f"{field} {text!r} does not fit in 64 bits"
                raise ParseError(f"{message} at line {line}", line) from None
        for bad, message in rules(*values)[1]:
            if bad:
                raise ParseError(f"{message} at line {line}", line)


def _id_coders():
    """(coders, tables) of the student, question and class columns."""
    return zip(_interner(str.strip), _interner(str.strip), _interner(lambda text: text.strip() or NO_CLASS))


def _load(path: str, header: list[str], rules, too_big: str | None = None) -> tuple:
    """A response CSV's unchecked columns and id tables, in build_dataset's argument order.

    The byte path reads while the file keeps to its grammar, then the csv
    path. `rules(*mark_columns)` gives a block's int8 outcome and its mark
    checks. `too_big` replaces the message for a mark beyond int64.
    Both paths code ids through the same interners, numbered in
    first-appearance order, so ids keep their numbers when the csv path
    reads on from a block the byte path stopped at.
    """
    coders, tables = _id_coders()
    columns, at, line = _load_bytes(path, header, rules, list(map(_key_coder, coders)))
    if at is not None:
        blocks = _load_csv(path, header, rules, too_big, coders, at, line)
        columns = [np.concatenate(col) for col in zip(columns, *blocks)]
    return (*columns, *map(tuple, tables))


def _load_bytes(path: str, header: list[str], rules, coders) -> tuple[list, int | None, int]:
    """The byte path: the columns of a file's records before the first block outside its grammar.

    `coders` are the id columns' `_key_coder`s. Returns the columns, and
    the byte offset and line number of that block, or None for the offset
    when the whole file was read. The four columns are allocated once from
    a line count; the file is then read in blocks of about _READ_BYTES,
    each cut after its last line end, and `_read_block` counts each
    block's line ends in its scan. Only file I/O raises.
    """
    columns = [np.empty(0, dtype) for dtype in _COLUMNS]
    if not os.path.isfile(path):   # a pipe can be read only once: by the csv path
        return columns, 0, 1
    head = ",".join(header).encode()
    longest = len(header) * (csv.field_size_limit() + 1)   # a record of the grammar, without its '\n'
    with open(path, "rb") as fh:
        first = fh.readline(len(codecs.BOM_UTF8) + len(head) + 2).removeprefix(codecs.BOM_UTF8)
        if first not in (head, head + b"\n", head + b"\r\n") or max(map(len, header)) > csv.field_size_limit():
            return columns, 0, 1
        at, line = fh.tell(), 2
        size = _line_count(fh)
        out = [np.empty(size, dtype) for dtype in _COLUMNS]
        fh.seek(at)
        n, rest = 0, b""
        for chunk in chain(iter(partial(fh.read, _READ_BYTES), b""), [b""]):   # the empty chunk ends the last line
            text = rest + chunk
            cut = text.rfind(b"\n") + 1 if chunk else len(text)
            text, rest = text[:cut], text[cut:]
            if text:
                got = _read_block(np.frombuffer(text, np.uint8), len(header), rules, coders, size - line + 2)
                if got is None:
                    break
                block, lines = got
                for col, values in zip(out, block):
                    col[n:n + values.size] = values
                n, at, line = n + values.size, at + len(text), line + lines
            if len(rest) > longest:   # a line no record of the grammar fills
                break
        else:
            at = None
    return [col[:n] for col in out], at, line


def _line_count(fh) -> int:
    """The line ends from a binary file's position to its end, plus one for a last line without one."""
    return sum(chunk.count(b"\n") for chunk in iter(partial(fh.read, _READ_BYTES), b"")) + 1


def _read_block(b: np.ndarray, width: int, rules, coders, room: int) -> tuple[list, int] | None:
    """(columns, line ends) of a block of whole lines (the file's last may lack its line end), or None.

    One scan finds every comma and line end in order: a line's commas are
    the gap between its line end and the one before, and the separators
    of the filled lines, reshaped to (records, width), end the fields.
    None, before any id is coded, for a block outside the grammar or with
    `room` line ends or more (the file grew after its line count).
    """
    sep = np.flatnonzero((b == 44) | (b == 10))
    ends = np.flatnonzero(b[sep] == 10)   # the line ends' places in sep
    cr = np.flatnonzero(b == 13)
    if ends.size >= room or np.count_nonzero(b < 32) != ends.size + cr.size or b.max() > 126 or (b == 34).any():
        return None   # the file grew, or a byte other than printable ASCII, '\n' and '\r', or a quote
    if cr.size and (cr[-1] + 1 == b.size or (b[cr + 1] != 10).any()):
        return None   # a '\r' not directly before a '\n'
    lines = ends.size
    if not lines or sep[ends[-1]] != b.size - 1:
        sep, ends = np.append(sep, b.size), np.append(ends, sep.size)
    nl = sep[ends]
    starts = np.concatenate(([0], nl[:-1] + 1))
    stops = nl - (b[nl - 1] == 13)
    filled = stops > starts   # blank lines are skipped
    if not np.array_equal(np.diff(ends, prepend=-1) - 1, filled * (width - 1)):
        return None
    if not filled.all():
        sep = np.delete(sep, ends[~filled])
    stop = sep.reshape(-1, width).T.copy()   # (width, records) field ends: the comma or line end after each
    if not stop.shape[1]:
        return [np.empty(0, dtype) for dtype in _COLUMNS], lines
    stop[-1] = stops[filled]   # before a line end's '\r'
    lo = np.vstack((starts[filled], stop[:-1] + 1))
    length = stop - lo
    if length.max() > csv.field_size_limit() or length[:3].max() > _KEY_BYTES:
        return None
    b = np.concatenate((b, np.zeros(_KEY_BYTES, np.uint8)))   # room for the last field's digits and key
    marks = [_digits(b, lo[k], length[k]) for k in range(3, width)]
    if any(m is None for m in marks):
        return None
    y, checks = rules(*marks)
    if any(bad.any() for bad, _ in checks):
        return None
    words = np.lib.stride_tricks.sliding_window_view(b, 8).view("<u8")[:, 0]   # the unaligned word at each byte
    return [codes(words, lo[k], length[k]) for k, codes in enumerate(coders)] + [y], lines


def _digits(b: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray | None:
    """The int64 values of fields of 1-18 ASCII digits, or None."""
    if length.min() < 1 or length.max() > 18:
        return None
    value = np.zeros(lo.size, np.int64)
    for j in range(int(length.max())):
        digit = b[lo + j] - np.uint8(48)
        more = j < length
        if (more & (digit > 9)).any():
            return None
        value = np.where(more, value * 10 + digit, value)
    return value


def _key_coder(code):
    """The byte path's coder of one id column, over the interner's `code`.

    codes(words, lo, length) gives the codes of the fields b[lo:lo + length]
    of a block b, whose little-endian uint64 word at byte i is words[i]. A
    field's key is its words, zero past its end, and its hash the words
    weighted by _MIX. The keys met so far are entries of a direct-mapped
    table: a key's slot, the top bits of its hash times _GOLDEN, holds the
    entry of one key (entry 0, a key no field has, when empty), and a hit
    is checked against that entry's length and words. A block's other
    keys (new ones, and ones whose slot another key holds), found by one
    stable lexsort of their words, go through `code` once each, in
    first-appearance order. The table first grows if, with them, the
    entries would fill more than an eighth of its slots; then they take
    their slots where empty. A slot that two keys share costs time, never
    a wrong code.
    """
    slots = np.zeros(_FIRST_SLOTS, np.int32)
    words_of, length_of, code_of = np.zeros((1, 1), "<u8"), np.full(1, -1), np.zeros(1, np.int64)   # per entry

    def slot(h: np.ndarray) -> np.ndarray:
        return (h * _GOLDEN >> np.uint64(65 - slots.size.bit_length())).view(np.int64)

    def codes(words: np.ndarray, lo: np.ndarray, length: np.ndarray) -> np.ndarray:
        nonlocal slots, words_of, length_of, code_of
        keys = [words[lo + 8 * w] & _LOW_BYTES[w][length] for w in range((int(length.max()) + 7) // 8 or 1)]
        h = sum(map(operator.mul, keys, _MIX))
        entry = slots[slot(h)].astype(np.intp)
        hit = length_of[entry] == length
        for key, known in zip(keys, words_of):   # an equal length has as many words on both sides
            hit &= known[entry] == key
        out = code_of[entry]
        miss = np.flatnonzero(~hit)
        if miss.size:
            missed = [key[miss] for key in keys]
            order = np.lexsort(missed[::-1])   # stable: each key's first miss leads its run
            new = np.arange(miss.size) == 0   # where the sorted words change; field bytes are non-zero, so texts do
            for key in missed:
                key = key[order]
                new[1:] |= key[1:] != key[:-1]
            first = order[new]   # each key's first miss, in key order
            appear = np.argsort(first)
            rows = np.stack([key[first[appear]] for key in missed], axis=1)
            fresh = np.empty(first.size, np.int64)
            fresh[appear] = code(list(map(bytes.decode, rows.view(f"S{rows[0].nbytes}").ravel().tolist())))
            out[miss[order]] = fresh[np.cumsum(new) - 1]
            put = miss[first[appear]]   # each key's first miss, in first-appearance order
            if 8 * (code_of.size + put.size) > slots.size:   # grown first, so that a block of new keys finds room
                slots = np.zeros(1 << (8 * (code_of.size + put.size) - 1).bit_length(), np.int32)
                slots[slot(sum(map(operator.mul, words_of[:, 1:], _MIX)))] = np.arange(1, code_of.size)
            at = slot(h[put])
            put, at = put[slots[at] == 0], at[slots[at] == 0]
            one = np.unique(at, return_index=True)[1]   # one key a slot, the first to appear
            put, at, n = put[one], at[one], code_of.size
            grown = np.zeros((max(len(words_of), len(keys)), n + put.size), "<u8")
            grown[:len(words_of), :n], grown[:len(keys), n:] = words_of, [key[put] for key in keys]
            words_of, length_of, code_of = grown, np.append(length_of, length[put]), np.append(code_of, out[put])
            slots[at] = np.arange(n, code_of.size)
        return out

    return codes


def _load_csv(path: str, header: list[str], rules, too_big: str | None, coders, at: int = 0, line: int = 1) -> list:
    """The csv path: the column blocks of a response CSV from byte `at`, the start of line `line`.

    At byte 0 the header is read and checked first. Each block's mark
    columns are parsed and checked whole by `_marks`, which walks a
    failing block again to raise the ParseError of its first bad row.
    File line numbers count the header as line 1, and blank records,
    which are skipped, too. A byte that is not UTF-8 is a ParseError
    naming the line that holds it, and so is a field longer than
    csv.field_size_limit(), after the records before it are checked.
    Every ParseError raised here holds the file in its path.
    """
    width = len(header)
    blocks = []
    try:
        with open(path, newline="", encoding="utf-8" if at else "utf-8-sig") as fh:
            if at:
                fh.buffer.seek(at)
            reader = csv.reader(fh)
            if not at:
                got = next(reader, None)
                if got is None:
                    raise ParseError(f"{path}: empty file, expected header {','.join(header)}", 1)
                if [c.strip() for c in got] != header:
                    raise ParseError(f"{path}: bad header {got!r}, expected {','.join(header)}", 1)
                line = 2
            while True:
                fields, counts, torn = [], [], None
                try:
                    for record in islice(reader, _READ_BLOCK):
                        counts.append(len(record))
                        fields += record
                except csv.Error as exc:   # raised after the records before it are checked
                    torn = exc
                if not counts and torn is None:
                    break
                counts = np.array(counts)
                lines = line + np.flatnonzero(counts)   # of the non-blank records
                line += counts.size
                counts = counts[counts > 0]
                wrong = np.flatnonzero(counts != width)
                n = int(wrong[0]) if wrong.size else counts.size   # records before the first of another width
                columns = [fields[i:n * width:width] for i in range(width)]
                blocks.append((*(code(col) for code, col in zip(coders, columns)),
                               _marks(columns[3:], lines[:n], header[3:], rules, too_big)))
                if wrong.size:
                    raise ParseError(f"{path}: expected {width} fields at line {lines[n]}, got {counts[n]}", lines[n])
                if torn is not None:
                    raise torn
    except ParseError as exc:
        exc.path = path
        raise
    except csv.Error as exc:   # the tokenizer's, on the record at `line`
        raise ParseError(f"{path}: {exc} at line {line}", line, path) from None
    except UnicodeDecodeError:
        line = _non_utf8_line(path)
        raise ParseError(f"{path}: not UTF-8 text at line {line}", line, path) from None
    return blocks


def _non_utf8_line(path: str) -> int:
    """The line holding a file's first byte that is not UTF-8, numbered as the loaders number records."""
    with open(path, "rb") as fh:
        raw = fh.read()
    try:
        raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        raw = raw[:exc.start] + b"?"   # the text before the byte, and a stand-in for it
    return sum(1 for _ in csv.reader(io.StringIO(raw.decode("utf-8"), newline="")))


def load_raw_csv(path: str) -> Dataset:
    """Load raw marked responses (marks awarded / available per question) into a checked Dataset."""
    return build_dataset(*_load(path, RAW_HEADER, _raw_rules))


def load_binary_csv(path: str) -> Dataset:
    """Load pre-binarized responses into a checked Dataset."""
    return build_dataset(*_load(path, BINARY_HEADER, _binary_rules, too_big="y must be 0 or 1"))


def build_dataset(student_idx, question_idx, class_idx, y, student_ids, question_ids, class_ids) -> Dataset:
    """The Dataset of response columns (int64 codes into the id tables, int8 outcomes), once they pass its checks.

    class_idx gives each row's class; the Dataset keeps each student's.
    Raises ValueError on a student appearing under two different class
    ids or on a repeated (student, question) cell, naming the first
    offending row in row order (the class first when one row is both),
    and on student codes that are not numbered in first-appearance order
    (as the loaders number them).
    """
    n = y.shape[0]
    top = np.maximum.accumulate(student_idx)   # rises at each student's first row (first-appearance codes)
    first = np.concatenate(([0], np.flatnonzero(top[1:] != top[:-1]) + 1))[:n]
    del top
    if not np.array_equal(student_idx[first], np.arange(len(student_ids))):
        raise ValueError("student codes are not numbered in first-appearance order")
    class_of = class_idx[first]
    conflict = np.flatnonzero(class_idx != class_of[student_idx])
    order, keys = _stable_order((student_idx, len(student_ids)), (question_idx, len(question_ids)))
    same = np.ones(max(n - 1, 0), dtype=bool)   # a row's cell is its sorted predecessor's
    for key in keys:
        key = key[order]
        same &= key[1:] == key[:-1]
    repeated = order[1:][same]   # every row but the first of its cell
    first_conflict = int(conflict[0]) if conflict.size else n
    first_repeat = int(repeated.min()) if repeated.size else n
    if first_conflict < n and first_conflict <= first_repeat:
        s = student_idx[first_conflict]
        raise ValueError(f"student {student_ids[s]!r} has conflicting class ids "
                         f"{class_ids[class_of[s]]!r} and {class_ids[class_idx[first_conflict]]!r}")
    if first_repeat < n:
        raise ValueError(f"duplicate response for student {student_ids[student_idx[first_repeat]]!r} "
                         f"question {question_ids[question_idx[first_repeat]]!r}")
    return Dataset(student_idx=student_idx, question_idx=question_idx, y=y, class_of=class_of,
                   student_ids=student_ids, question_ids=question_ids, class_ids=class_ids)


def _escaped(ids) -> np.ndarray:
    """Each id in UTF-8 as csv.writer writes it in a row of several fields, with the delimiter after it.

    An id holding ',', '"', '\\r' or '\\n' is quoted, with each '"'
    doubled; any other id is written as it is.
    """
    return np.array([('"' + i.replace('"', '""') + '",' if _QUOTED.search(i) else i + ",").encode() for i in ids],
                    dtype=bytes)


def write_binary_csv(d: Dataset, path: str) -> None:
    """Write the pre-binarized CSV schema (round-trips through load_binary_csv).

    The bytes are csv.writer's (minimal quoting, \\r\\n line ends). Each id
    table is escaped once; rows are assembled a block at a time by
    gathering the escaped UTF-8 ids and adding the byte strings. A block
    holds about _WRITE_CHARS bytes, because a fixed-width byte string
    array is as wide as its longest id.
    """
    if d.n_responses and (d.y.min() < 0 or d.y.max() > 1):
        raise ValueError("y must be 0 or 1")
    student = _escaped(d.student_ids)
    question = _escaped(d.question_ids)
    klass = _escaped(d.class_ids)[d.class_of]
    tail = np.array([b"0\r\n", b"1\r\n"])
    block = max(1, _WRITE_CHARS // (student.itemsize + question.itemsize + klass.itemsize + tail.itemsize))
    with open(path, "wb") as fh:
        fh.write(",".join(BINARY_HEADER).encode() + b"\r\n")
        for lo in range(0, d.n_responses, block):
            s = d.student_idx[lo:lo + block]
            rows = np.char.add(np.char.add(student[s], question[d.question_idx[lo:lo + block]]),
                                  np.char.add(klass[s], tail[d.y[lo:lo + block]]))
            fh.write(b"".join(rows.tolist()))   # each row ends in '\n', so no trailing NUL is dropped


def _stable_order(*columns) -> tuple[np.ndarray, list]:
    """(order, keys): the stable sort of rows by their (codes, count) columns, first column first, and keys
    that are equal in two rows iff all their codes are.

    When every column's codes fit 16 bits, the keys are the columns as
    uint8 or uint16, which numpy lexsort radix-sorts. Wider codes make one
    int64 key in mixed radix, which a 32-bit lexsort does not beat; a
    stable sort's permutation is unique, so both give the same order.
    """
    dtypes = [np.min_scalar_type(max(count - 1, 0)) for _, count in columns]
    if max(dtype.itemsize for dtype in dtypes) > 2:
        key = columns[0][0]
        for codes, count in columns[1:]:
            key = key * count + codes
        return np.argsort(key, kind="stable"), [key]
    keys = [codes.astype(dtype) for (codes, _), dtype in zip(columns, dtypes)]
    return np.lexsort(keys[::-1]), keys


def choice_per_group(rng: np.random.Generator, sizes, ks) -> np.ndarray:
    """The picks of rng.choice(n, size=k, replace=False) for each group (n, k) in turn, as one mask.

    Group i is the slice of the returned bool array that follows the
    sizes of the groups before it; its k picked positions are True. rng's
    stream is continued exactly as the per-group calls continue it, and
    left where they leave it, for groups of fewer than 2**32 rows.
    When every group is in the Floyd branch of numpy 2.4's
    Generator.choice (n <= 10,000 or k <= n // 50), the groups are drawn
    in bulk by `_floyd`, about _CHOICE_DRAWS draws at a time so that
    memory stays bounded. The bounded draws come from Generator.integers;
    only the choice of Floyd's branch and the order of the draws tie this
    to numpy 2.4. So on any other numpy, and in a call holding a group in
    numpy's other branch, every group is drawn by rng.choice itself.
    """
    sizes, ks = np.asarray(sizes, dtype=np.int64), np.asarray(ks, dtype=np.int64)
    start = np.cumsum(sizes) - sizes
    mask = np.zeros(int(sizes.sum()), dtype=bool)
    if not _BULK_CHOICE or ((sizes > _FLOYD_LIMIT) & (ks > sizes // 50)).any():
        for lo, n, k in zip(start.tolist(), sizes.tolist(), ks.tolist()):
            mask[lo + rng.choice(n, size=k, replace=False)] = True
        return mask
    draws = np.cumsum(np.maximum(2 * ks - 1, 0))
    blocks = np.searchsorted(draws, np.arange(_CHOICE_DRAWS, draws[-1] if draws.size else 0, _CHOICE_DRAWS))
    cuts = sorted({0, sizes.size, *blocks.tolist()})
    for lo, hi in zip(cuts[:-1], cuts[1:]):
        _floyd(rng, sizes[lo:hi], ks[lo:hi], start[lo:hi], mask)
    return mask


def _floyd(rng: np.random.Generator, n: np.ndarray, k: np.ndarray, start: np.ndarray, mask: np.ndarray) -> None:
    """Set in mask, at each group's start, the picks Generator.choice's Floyd branch makes for groups (n, k).

    Per group, pick t is a draw v in [0, j] with j = n - k + t, or j if v
    was picked before; then k - 1 draws with bounds k - 1 .. 1 shuffle
    the picks, which consumes the stream but not the set. One
    rng.integers call makes every group's draws, in that order. v was
    picked before iff an earlier draw of the group was v, or v is the j
    of an earlier pick that took its j; those chains are followed by
    pointer jumping, so no step is taken per pick.
    """
    span = np.maximum(2 * k - 1, 0)   # each group's draws: k picks, then k - 1 shuffle draws
    group = np.repeat(np.arange(n.size), span)
    t = np.arange(group.size) - np.repeat(np.cumsum(span) - span, span)
    kg, low = k[group], (n - k)[group]
    picks = t < kg
    bound = np.where(picks, low + t, 2 * kg - 1 - t)
    v = rng.integers(0, bound, endpoint=True, dtype=np.uint32).astype(np.int64)   # a bound of 0 draws no word
    group, t, v, low = group[picks], t[picks], v[picks], low[picks]
    at = start[group] + v
    order = np.argsort(at, kind="stable")
    taken = np.zeros(v.size, dtype=bool)
    taken[order[1:]] = at[order[1:]] == at[order[:-1]]   # an earlier draw of the group was v
    follow = ~taken & (v >= low) & (v < low + t)          # v is the j of pick v - low: taken iff that pick took its j
    ptr = np.arange(v.size) - t + (v - low)
    while follow.any():
        i = np.flatnonzero(follow)
        p = ptr[i]
        done = ~follow[p]
        taken[i[done]] = taken[p[done]]
        follow[i[done]] = False
        ptr[i[~done]] = ptr[p[~done]]
    mask[np.where(taken, start[group] + low + t, at)] = True


def split_train_test(d: Dataset, test_fraction: float, seed: int) -> tuple[Dataset, Dataset]:
    """(train, test): a per-observation random holdout, stratified per student.

    Each student's responses are split so that round(test_fraction * n)
    of them land in test, capped so at least one stays in train. A
    student with a single response always trains. Deterministic per seed:
    student by student, the test rows are the picks of
    rng.choice(n, size=k, replace=False) over the student's rows in row
    order, reproduced in bulk by `choice_per_group` (a split holding a
    student of over 10,000 responses in numpy's other branch draws every
    student by rng.choice).
    """
    if not 0.0 < test_fraction < 1.0:
        raise ValueError(f"test_fraction must be in (0, 1), got {test_fraction}")
    if d.n_responses < 2:
        raise ValueError("need at least 2 responses to split")
    require_count("seed", seed, 0)

    rng = np.random.default_rng(seed)
    order = _stable_order((d.student_idx, d.num_students))[0]   # each student's responses in row order
    sizes = np.bincount(d.student_idx, minlength=d.num_students)
    ks = np.minimum(np.floor(test_fraction * sizes + 0.5).astype(np.int64), np.maximum(sizes - 1, 0))
    test = np.empty(d.n_responses, dtype=bool)
    test[order] = choice_per_group(rng, sizes, ks)   # order is a permutation: every row is written
    del order   # freed before the selections

    return d.select(~test), d.select(test)


def students_kept(fraction: float, num_students: int) -> int:
    """floor(fraction * num_students); a ValueError for a fraction outside (0, 1] or one that keeps no student."""
    if not 0.0 < fraction <= 1.0:
        raise ValueError(f"fraction must be in (0, 1], got {fraction}")
    keep = int(np.floor(fraction * num_students))
    if keep == 0:
        raise ValueError(f"fraction {fraction} of {num_students} students keeps no student")
    return keep


def subsample_students(d: Dataset, fraction: float, seed: int) -> Dataset:
    """Keep floor(fraction * S) students chosen uniformly at random.

    Retained students keep every one of their responses and are densely
    reindexed (in ascending original order); question and class indexing
    is left untouched so checkpoints stay comparable across fractions.
    """
    keep = students_kept(fraction, d.num_students)
    require_count("seed", seed, 0)
    rng = np.random.default_rng(seed)
    return d.keep_students(np.sort(rng.choice(d.num_students, size=keep, replace=False)))
