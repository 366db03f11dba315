"""Reference tokenizer that surface._tokenize is checked against.

This is the character loop the surface tokenizer used to be: it walks the
text one character at a time and probes every symbol with startswith. The
compiled-pattern tokenizer must give the same tokens, or raise the same
ParseError at the same line and column, on every text.
"""

from selectc.errors import ParseError
from selectc.surface import _Token

SYMBOLS = (":=", "==", "!=", "<=", ">=", "<", ">", "=", "+", "-", "*", "/",
           "(", ")", "{", "}", "[", "]", ";", "!")


def reference_tokenize(text: str) -> list[_Token]:
    tokens: list[_Token] = []
    line = 1
    col = 1
    i = 0
    n = len(text)
    while i < n:
        ch = text[i]
        if ch == "\n":
            line += 1
            col = 1
            i += 1
            continue
        if ch in " \t\r":
            i += 1
            col += 1
            continue
        if ch == "#":
            # a comment does not move the column, which the end token reads
            while i < n and text[i] != "\n":
                i += 1
            continue
        if "0" <= ch <= "9":  # str.isdigit() is also true for '²' and '٣'
            start = i
            while i < n and "0" <= text[i] <= "9":
                i += 1
            tokens.append(_Token("int", text[start:i], line, col))
            col += i - start
            continue
        if ch.isalpha() or ch == "_":
            start = i
            while i < n and (text[i].isalnum() or text[i] == "_"):
                i += 1
            tokens.append(_Token("name", text[start:i], line, col))
            col += i - start
            continue
        for sym in SYMBOLS:
            if text.startswith(sym, i):
                tokens.append(_Token("sym", sym, line, col))
                i += len(sym)
                col += len(sym)
                break
        else:
            raise ParseError(f"unexpected character {ch!r}", line, col)
    tokens.append(_Token("eof", "", line, col))
    return tokens
