"""The presets the parametrized tests run on, written once.

``NINE_PRESETS`` are the nine desk presets; ``TEN_PRESETS`` add ``BnCn(3)``,
the rank-three preset.  Shared by the test modules, as ``xi_form`` is.
"""

NINE_PRESETS = ("A1-weight", "A1-root", "A2", "B2", "C2", "G2", "BnCn(2)", "GLn(2)", "GLn(3)")
TEN_PRESETS = NINE_PRESETS + ("BnCn(3)",)
