"""Exception types shared across the toolkit."""


class ToolkitError(Exception):
    """Base class for every error this package raises on purpose."""


class InputError(ToolkitError):
    """Malformed input: bad alphabet, foreign letters, invalid indices."""


class AlphabetMismatchError(InputError):
    """Two automata were combined but their alphabets differ."""


class ParseError(InputError):
    """An automaton file could not be parsed.

    ``line`` and ``column`` are 1-based when known; ``path`` names the file
    when the text came from one; ``message`` is the bare description.
    """

    def __init__(self, message, line=None, column=None, path=None):
        where = "" if path is None else f"{path}: "
        if line is not None:
            where += f"line {line}: " if column is None else f"line {line}, column {column}: "
        super().__init__(where + message)
        self.message = message
        self.line = line
        self.column = column
        self.path = path


class NotUpwardClosedError(ToolkitError):
    """An operation that needs an upward closed language got one that is not.

    ``witness`` is a word of the upward closure that the language itself
    rejects.
    """

    def __init__(self, message, witness):
        super().__init__(message)
        self.witness = witness


class InfiniteMeasureError(ToolkitError):
    """An operation that needs a finite alternation measure got an infinite one."""


class WordCapExceededError(ToolkitError):
    """Word enumeration was asked for more words than the configured cap."""
